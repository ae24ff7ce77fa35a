package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"bear/internal/footer"
	"bear/internal/sparse"
)

// magic2 identifies version 2 of the BEAR precomputed-matrix file format:
// the payload followed by an integrity footer — the byte length of
// everything before the footer (8 bytes, little endian) and the IEEE CRC32
// of those same bytes (4 bytes) — so truncated or bit-flipped files are
// rejected loudly instead of deserializing into silent garbage.
var magic2 = [8]byte{'B', 'E', 'A', 'R', 'P', 'C', '0', '2'}

// magic3 identifies version 3 of the format: the v2 payload followed by an
// extension section that carries the retained exact H (Options.KeepH), then
// the same integrity footer. Files without a retained H are still written
// as v2, byte-identical to before, so v3 appears only when there is
// genuinely more to store.
var magic3 = [8]byte{'B', 'E', 'A', 'R', 'P', 'C', '0', '3'}

// footerLen is the size of the v2/v3 integrity footer.
const footerLen = footer.Len

// Save writes the precomputed matrices in a compact binary format
// (CRC-protected; version 3 when a retained H must be carried, version 2
// otherwise) so that the preprocessing phase can be paid once and reused
// across processes.
func (p *Precomputed) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := footer.NewWriter(bw)
	e := &encoder{w: cw}
	if p.H != nil {
		e.bytes(magic3[:])
	} else {
		e.bytes(magic2[:])
	}
	p.encodePayload(e, p.H != nil)
	if e.err != nil {
		return fmt.Errorf("core: saving precomputed matrices: %w", e.err)
	}
	if err := cw.WriteFooter(); err != nil {
		return fmt.Errorf("core: saving precomputed matrices: %w", err)
	}
	return bw.Flush()
}

// encodePayload writes every serialized field (everything after the magic,
// before the footer). Shared by Save and the Dynamic state snapshot. withH
// appends the v3 extension section — a presence flag and, when set, the
// retained exact H; with withH false the output is byte-identical to the
// v2 payload.
func (p *Precomputed) encodePayload(e *encoder, withH bool) {
	e.i64(int64(p.N))
	e.i64(int64(p.N1))
	e.i64(int64(p.N2))
	e.f64(p.C)
	e.ints(p.Blocks)
	e.ints(p.Perm)
	e.ints(p.InvPerm)
	e.ints(p.SPerm)
	e.floats(p.OutDegree)
	for _, m := range []*sparse.CSR{p.L1Inv, p.U1Inv, p.H12, p.H21, p.L2Inv, p.U2Inv} {
		e.csr(m)
	}
	if withH {
		e.bool(p.H != nil)
		if p.H != nil {
			e.csr(p.H)
		}
	}
}

// decodePayload is the inverse of encodePayload: it decodes, validates,
// and derives. Any error yields a nil Precomputed — never a partially
// populated one.
func decodePayload(d *decoder, withH bool) (*Precomputed, error) {
	p := &Precomputed{}
	p.N = int(d.i64())
	p.N1 = int(d.i64())
	p.N2 = int(d.i64())
	p.C = d.f64()
	p.Blocks = d.ints()
	p.Perm = d.ints()
	p.InvPerm = d.ints()
	p.SPerm = d.ints()
	if len(p.SPerm) == 0 {
		p.SPerm = nil
	}
	p.OutDegree = d.floats()
	ms := make([]*sparse.CSR, 6)
	for i := range ms {
		ms[i] = d.csr()
	}
	var h *sparse.CSR
	if withH && d.bool() {
		h = d.csr()
	}
	if d.err != nil {
		return nil, fmt.Errorf("core: loading precomputed matrices: %w", d.err)
	}
	p.L1Inv, p.U1Inv, p.H12, p.H21, p.L2Inv, p.U2Inv = ms[0], ms[1], ms[2], ms[3], ms[4], ms[5]
	p.H = h
	if err := p.validate(); err != nil {
		return nil, err
	}
	p.finish()
	return p, nil
}

// Load reads matrices previously written by Save, verifying them against
// their length/CRC32 footer.
func Load(r io.Reader) (*Precomputed, error) {
	cr := footer.NewReader(bufio.NewReader(r))
	d := &decoder{r: cr}
	var got [8]byte
	d.bytes(got[:])
	if d.err != nil {
		return nil, fmt.Errorf("core: loading precomputed matrices: %w", d.err)
	}
	if got != magic2 && got != magic3 {
		return nil, fmt.Errorf("core: bad magic %q; not a BEAR precomputed file", got[:])
	}
	p, err := decodePayload(d, got == magic3)
	if err != nil {
		return nil, err
	}
	if err := cr.Check("file"); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return p, nil
}

func (p *Precomputed) validate() error {
	if p.N < 0 || p.N1 < 0 || p.N2 < 0 || p.N1+p.N2 != p.N {
		return fmt.Errorf("core: inconsistent sizes n=%d n1=%d n2=%d", p.N, p.N1, p.N2)
	}
	if p.C <= 0 || p.C >= 1 {
		return fmt.Errorf("core: restart probability %g outside (0,1)", p.C)
	}
	if len(p.Perm) != p.N || len(p.InvPerm) != p.N {
		return fmt.Errorf("core: permutation length mismatch")
	}
	for node, pos := range p.Perm {
		if pos < 0 || pos >= p.N || p.InvPerm[pos] != node {
			return fmt.Errorf("core: corrupt permutation at node %d", node)
		}
	}
	if p.SPerm != nil {
		if len(p.SPerm) != p.N2 {
			return fmt.Errorf("core: SPerm length %d, want %d", len(p.SPerm), p.N2)
		}
		seen := make([]bool, p.N2)
		for _, v := range p.SPerm {
			if v < 0 || v >= p.N2 || seen[v] {
				return fmt.Errorf("core: SPerm is not a permutation")
			}
			seen[v] = true
		}
	}
	if len(p.OutDegree) != p.N {
		return fmt.Errorf("core: OutDegree length %d, want %d", len(p.OutDegree), p.N)
	}
	blockSum := 0
	for _, b := range p.Blocks {
		if b <= 0 {
			return fmt.Errorf("core: non-positive block size %d", b)
		}
		blockSum += b
	}
	if blockSum != p.N1 {
		return fmt.Errorf("core: blocks sum to %d, want n1=%d", blockSum, p.N1)
	}
	check := func(name string, m *sparse.CSR, r, c int) error {
		if m.R != r || m.C != c {
			return fmt.Errorf("core: %s is %dx%d, want %dx%d", name, m.R, m.C, r, c)
		}
		if len(m.RowPtr) != r+1 || m.RowPtr[0] != 0 || m.RowPtr[r] != len(m.ColIdx) {
			return fmt.Errorf("core: %s has corrupt row pointers", name)
		}
		for i := 0; i < r; i++ {
			if m.RowPtr[i+1] < m.RowPtr[i] {
				return fmt.Errorf("core: %s row pointers not monotone at %d", name, i)
			}
		}
		for _, j := range m.ColIdx {
			if j < 0 || j >= c {
				return fmt.Errorf("core: %s column index %d out of %d", name, j, c)
			}
		}
		// The column-windowed kernels search rows on the sparse package's
		// invariant: strictly increasing columns within a row.
		for i := 0; i < r; i++ {
			for k := m.RowPtr[i] + 1; k < m.RowPtr[i+1]; k++ {
				if m.ColIdx[k] <= m.ColIdx[k-1] {
					return fmt.Errorf("core: %s row %d columns not strictly increasing", name, i)
				}
			}
		}
		return nil
	}
	for _, chk := range []error{
		check("L1inv", p.L1Inv, p.N1, p.N1),
		check("U1inv", p.U1Inv, p.N1, p.N1),
		check("H12", p.H12, p.N1, p.N2),
		check("H21", p.H21, p.N2, p.N1),
		check("L2inv", p.L2Inv, p.N2, p.N2),
		check("U2inv", p.U2Inv, p.N2, p.N2),
	} {
		if chk != nil {
			return chk
		}
	}
	if p.H != nil {
		if err := check("H", p.H, p.N, p.N); err != nil {
			return err
		}
	}
	return nil
}

type encoder struct {
	w   io.Writer
	err error
	buf [8]byte
}

func (e *encoder) bytes(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
}

func (e *encoder) i64(v int64) {
	binary.LittleEndian.PutUint64(e.buf[:], uint64(v))
	e.bytes(e.buf[:])
}

func (e *encoder) f64(v float64) { e.i64(int64(math.Float64bits(v))) }

func (e *encoder) bool(v bool) {
	if v {
		e.i64(1)
	} else {
		e.i64(0)
	}
}

func (e *encoder) str(s string) {
	e.i64(int64(len(s)))
	e.bytes([]byte(s))
}

func (e *encoder) ints(v []int) {
	e.i64(int64(len(v)))
	for _, x := range v {
		e.i64(int64(x))
	}
}

func (e *encoder) floats(v []float64) {
	e.i64(int64(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

func (e *encoder) csr(m *sparse.CSR) {
	e.i64(int64(m.R))
	e.i64(int64(m.C))
	e.ints(m.RowPtr)
	e.ints(m.ColIdx)
	e.floats(m.Val)
}

type decoder struct {
	r   io.Reader
	err error
	buf [8]byte
}

func (d *decoder) bytes(b []byte) {
	if d.err != nil {
		return
	}
	_, d.err = io.ReadFull(d.r, b)
}

func (d *decoder) i64() int64 {
	d.bytes(d.buf[:])
	if d.err != nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(d.buf[:]))
}

func (d *decoder) f64() float64 { return math.Float64frombits(uint64(d.i64())) }

func (d *decoder) bool() bool {
	switch d.i64() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.err = fmt.Errorf("corrupt boolean field")
		}
		return false
	}
}

const maxSliceLen = 1 << 33 // sanity bound against corrupt headers

// maxStrLen bounds decoded strings (identifiers like ordering names, never
// bulk data), so a lying length header cannot allocate gigabytes.
const maxStrLen = 1 << 12

func (d *decoder) str() string {
	n := d.i64()
	if d.err == nil && (n < 0 || n > maxStrLen) {
		d.err = fmt.Errorf("corrupt string length %d", n)
	}
	if d.err != nil {
		return ""
	}
	b := make([]byte, n)
	d.bytes(b)
	if d.err != nil {
		return ""
	}
	return string(b)
}

func (d *decoder) sliceLen() int {
	n := d.i64()
	if d.err == nil && (n < 0 || n > maxSliceLen) {
		d.err = fmt.Errorf("corrupt slice length %d", n)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// Slices grow incrementally while decoding so that a lying length header in
// a corrupt or truncated file fails at EOF instead of pre-allocating
// gigabytes and spinning through dead reads.
const decodeChunk = 1 << 16

func (d *decoder) ints() []int {
	n := d.sliceLen()
	v := make([]int, 0, min(n, decodeChunk))
	for len(v) < n && d.err == nil {
		v = append(v, int(d.i64()))
	}
	if d.err != nil {
		return nil
	}
	return v
}

func (d *decoder) floats() []float64 {
	n := d.sliceLen()
	v := make([]float64, 0, min(n, decodeChunk))
	for len(v) < n && d.err == nil {
		v = append(v, d.f64())
	}
	if d.err != nil {
		return nil
	}
	return v
}

func (d *decoder) csr() *sparse.CSR {
	m := &sparse.CSR{}
	m.R = int(d.i64())
	m.C = int(d.i64())
	m.RowPtr = d.ints()
	m.ColIdx = d.ints()
	m.Val = d.floats()
	if d.err == nil {
		if m.R < 0 || m.C < 0 || len(m.RowPtr) != m.R+1 || len(m.ColIdx) != len(m.Val) {
			d.err = fmt.Errorf("corrupt CSR header %dx%d", m.R, m.C)
		}
	}
	return m
}
