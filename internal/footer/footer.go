// Package footer frames the BEAR file formats — BEARPC indexes, BEARDY
// dynamic states and BEARSV server snapshots — with one integrity footer:
// the byte length of everything before it (8 bytes, little endian) and
// the IEEE CRC32 of those same bytes (4 bytes), so a truncated or
// bit-flipped file is rejected loudly instead of decoding into garbage.
package footer

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Len is the footer's size in bytes.
const Len = 12

// Writer counts and checksums everything written through it.
type Writer struct {
	w   io.Writer
	n   int64
	sum uint32
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

func (c *Writer) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}

// WriteFooter writes the footer for the bytes written so far straight to
// the underlying writer, outside the checksum.
func (c *Writer) WriteFooter() error {
	var foot [Len]byte
	binary.LittleEndian.PutUint64(foot[:8], uint64(c.n))
	binary.LittleEndian.PutUint32(foot[8:], c.sum)
	_, err := c.w.Write(foot[:])
	return err
}

// Reader counts and checksums everything read through it.
type Reader struct {
	r   io.Reader
	n   int64
	sum uint32
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

func (c *Reader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}

// Check reads the footer straight from the underlying reader, outside the
// checksum, and verifies it against the bytes read so far. Its errors
// call the stream what ("file", "snapshot").
func (c *Reader) Check(what string) error {
	var foot [Len]byte
	if _, err := io.ReadFull(c.r, foot[:]); err != nil {
		return fmt.Errorf("truncated %s: missing integrity footer: %w", what, err)
	}
	if n := int64(binary.LittleEndian.Uint64(foot[:8])); n != c.n {
		return fmt.Errorf("corrupt %s: footer records %d payload bytes, read %d", what, n, c.n)
	}
	if sum := binary.LittleEndian.Uint32(foot[8:]); sum != c.sum {
		return fmt.Errorf("corrupt %s: CRC32 mismatch (stored %08x, computed %08x)", what, sum, c.sum)
	}
	return nil
}
