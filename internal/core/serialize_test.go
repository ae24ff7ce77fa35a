package core

import (
	"bytes"
	"strings"
	"testing"

	"bear/internal/graph/gen"
)

func TestLoadRejectsBadMagic(t *testing.T) {
	if _, err := Load(strings.NewReader("NOTBEAR0 and then some")); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	g := gen.ErdosRenyi(50, 200, 30)
	p, err := Preprocess(g, Options{K: 1})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, len(full) / 3, len(full) - 1} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("expected error for truncation at %d bytes", cut)
		}
	}
}

func TestLoadRejectsCorruptPermutation(t *testing.T) {
	g := gen.ErdosRenyi(30, 120, 31)
	p, err := Preprocess(g, Options{K: 1})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	// Corrupt the permutation in memory and roundtrip.
	p.Perm[0], p.Perm[1] = p.Perm[1], p.Perm[0] // now inconsistent with InvPerm
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("expected corrupt-permutation error")
	}
}

// TestLoadRejectsUnsortedRow: the column-windowed kernels search each row
// on strictly increasing columns, so a file whose factor repeats a column
// within a row is refused at load.
func TestLoadRejectsUnsortedRow(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 8, Size: 15, PIntra: 0.3, Hubs: 5, HubDeg: 12, Seed: 32})
	p, err := Preprocess(g, Options{})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	m := p.L2Inv
	row := -1
	for i := 0; i < m.R && row < 0; i++ {
		if m.RowPtr[i+1]-m.RowPtr[i] >= 2 {
			row = i
		}
	}
	if row < 0 {
		t.Fatal("fixture's L2inv has no row with two entries")
	}
	k := m.RowPtr[row]
	m.ColIdx[k+1] = m.ColIdx[k]
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "not strictly increasing") {
		t.Fatalf("Load = %v, want the not-strictly-increasing error", err)
	}
}

func TestSaveLoadPreservesEverything(t *testing.T) {
	g := gen.CavemanHubs(gen.CavemanHubsConfig{Communities: 8, Size: 15, PIntra: 0.3, Hubs: 5, HubDeg: 12, Seed: 32})
	p, err := Preprocess(g, Options{K: 2, DropTol: 1e-4})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	p2, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if p2.N != p.N || p2.N1 != p.N1 || p2.N2 != p.N2 || p2.C != p.C {
		t.Fatal("header fields changed")
	}
	if p2.NNZ() != p.NNZ() || p2.Bytes() != p.Bytes() {
		t.Fatal("matrix sizes changed")
	}
	for seed := 0; seed < p.N; seed += 17 {
		a, _ := p.Query(seed)
		b, _ := p2.Query(seed)
		if d := maxAbsDiff(a, b); d != 0 {
			t.Fatalf("seed %d: roundtrip changed scores by %g", seed, d)
		}
		ea, _ := p.QueryEffectiveImportance(seed)
		eb, _ := p2.QueryEffectiveImportance(seed)
		if d := maxAbsDiff(ea, eb); d != 0 {
			t.Fatalf("seed %d: EI changed by %g", seed, d)
		}
	}
}
