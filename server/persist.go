// Registry snapshots: the whole server state — every graph's dynamic
// serving state, name, and creation time — in one file, written atomically
// (temp file + fsync + rename) and framed with a length/CRC32 footer so a
// crash mid-write or later bit-rot is detected on restore instead of
// silently serving garbage.

package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"bear"
	"bear/internal/footer"
)

// snapMagic identifies a server registry snapshot.
var snapMagic = [8]byte{'B', 'E', 'A', 'R', 'S', 'V', '0', '1'}

const (
	maxSnapGraphs = 1 << 20 // sanity bounds against corrupt headers
	maxSnapBlob   = 1 << 38
)

// WriteSnapshot serializes every registered graph to w. Each graph's
// dynamic state carries its own integrity footer (see Dynamic.SaveState);
// the snapshot adds an outer footer covering the framing, so corruption
// anywhere in the file is caught.
func (s *Server) WriteSnapshot(w io.Writer) error {
	s.mu.RLock()
	names := make([]string, 0, len(s.graphs))
	for name := range s.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	entries := make([]*entry, len(names))
	for i, name := range names {
		entries[i] = s.graphs[name]
	}
	s.mu.RUnlock()

	bw := bufio.NewWriter(w)
	cw := footer.NewWriter(bw)
	if _, err := cw.Write(snapMagic[:]); err != nil {
		return fmt.Errorf("server: writing snapshot: %w", err)
	}
	if err := writeU64(cw, uint64(len(names))); err != nil {
		return fmt.Errorf("server: writing snapshot: %w", err)
	}
	var blob bytes.Buffer
	for i, name := range names {
		blob.Reset()
		if err := entries[i].dyn.SaveState(&blob); err != nil {
			return fmt.Errorf("server: snapshotting graph %q: %w", name, err)
		}
		if err := writeU64(cw, uint64(len(name))); err != nil {
			return fmt.Errorf("server: writing snapshot: %w", err)
		}
		if _, err := io.WriteString(cw, name); err != nil {
			return fmt.Errorf("server: writing snapshot: %w", err)
		}
		if err := writeU64(cw, uint64(entries[i].created.UnixNano())); err != nil {
			return fmt.Errorf("server: writing snapshot: %w", err)
		}
		if err := writeU64(cw, uint64(blob.Len())); err != nil {
			return fmt.Errorf("server: writing snapshot: %w", err)
		}
		if _, err := cw.Write(blob.Bytes()); err != nil {
			return fmt.Errorf("server: writing snapshot: %w", err)
		}
	}
	if err := cw.WriteFooter(); err != nil {
		return fmt.Errorf("server: writing snapshot: %w", err)
	}
	return bw.Flush()
}

// ReadSnapshot restores the registry from a snapshot written by
// WriteSnapshot, replacing all currently registered graphs. On any error
// the existing registry is left untouched.
func (s *Server) ReadSnapshot(r io.Reader) error {
	// Flag the restore for GET /readyz: a router drains this instance
	// until the registry swap below lands (or the restore fails).
	s.restoring.Store(true)
	defer s.restoring.Store(false)
	cr := footer.NewReader(bufio.NewReader(r))
	var got [8]byte
	if _, err := io.ReadFull(cr, got[:]); err != nil {
		return fmt.Errorf("server: reading snapshot: %w", err)
	}
	if got != snapMagic {
		return fmt.Errorf("server: bad magic %q; not a BEAR server snapshot", got[:])
	}
	count, err := readU64(cr)
	if err != nil {
		return fmt.Errorf("server: reading snapshot: %w", err)
	}
	if count > maxSnapGraphs {
		return fmt.Errorf("server: corrupt snapshot: %d graphs", count)
	}
	graphs := make(map[string]*entry, count)
	for i := uint64(0); i < count; i++ {
		nameLen, err := readU64(cr)
		if err != nil {
			return fmt.Errorf("server: reading snapshot: %w", err)
		}
		if nameLen == 0 || nameLen > 128 {
			return fmt.Errorf("server: corrupt snapshot: graph name of %d bytes", nameLen)
		}
		nameBytes := make([]byte, nameLen)
		if _, err := io.ReadFull(cr, nameBytes); err != nil {
			return fmt.Errorf("server: reading snapshot: %w", err)
		}
		name := string(nameBytes)
		if err := validateName(name); err != nil {
			return fmt.Errorf("server: corrupt snapshot: %w", err)
		}
		createdNano, err := readU64(cr)
		if err != nil {
			return fmt.Errorf("server: reading snapshot: %w", err)
		}
		blobLen, err := readU64(cr)
		if err != nil {
			return fmt.Errorf("server: reading snapshot: %w", err)
		}
		if blobLen > maxSnapBlob {
			return fmt.Errorf("server: corrupt snapshot: graph %q blob of %d bytes", name, blobLen)
		}
		blob := make([]byte, blobLen)
		if _, err := io.ReadFull(cr, blob); err != nil {
			return fmt.Errorf("server: reading snapshot: %w", err)
		}
		dyn, err := bear.LoadDynamic(bytes.NewReader(blob))
		if err != nil {
			return fmt.Errorf("server: restoring graph %q: %w", name, err)
		}
		s.applyRebuildPolicy(dyn)
		graphs[name] = &entry{
			dyn:     dyn,
			opts:    dyn.Options(),
			created: time.Unix(0, int64(createdNano)),
			// A fresh generation: the restored Dynamic restarts its epoch
			// at zero, so entries cached against the pre-restore instance
			// must not be reachable from post-restore keys.
			gen: nextGen.Add(1),
		}
	}
	if err := cr.Check("snapshot"); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.mu.Lock()
	replaced := s.graphs
	s.graphs = graphs
	s.mu.Unlock()
	// Restore bypasses Add, so the per-graph metric series are (re)bound
	// here — outside s.mu, per the lock-ordering rule in metrics.go.
	// Series of graphs that existed only pre-restore are dropped.
	for name := range replaced {
		if _, still := graphs[name]; !still {
			s.dropGraphMetrics(name)
		}
	}
	for name, e := range graphs {
		s.exportGraphMetrics(name, e)
	}
	return nil
}

// SaveSnapshot writes the registry to path atomically: the bytes land in a
// temp file in the same directory, are fsynced, and only then renamed over
// path, so a crash at any point leaves either the old snapshot or the new
// one — never a torn file.
func (s *Server) SaveSnapshot(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("server: saving snapshot: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := s.WriteSnapshot(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("server: saving snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("server: saving snapshot: %w", err)
	}
	name := tmp.Name()
	tmp = nil // disarm cleanup; the file is complete
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("server: saving snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot restores the registry from the file at path. A missing file
// is reported via os.IsNotExist on the unwrapped error so callers can
// treat first boot as empty.
func (s *Server) LoadSnapshot(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.ReadSnapshot(f); err != nil {
		return fmt.Errorf("server: loading snapshot %s: %w", path, err)
	}
	return nil
}

func writeU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}
