package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// denseMulVec is the reference mat-vec for tests.
func denseMulVec(d []float64, r, c int, x []float64) []float64 {
	y := make([]float64, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			y[i] += d[i*c+j] * x[j]
		}
	}
	return y
}

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		r, c := 1+rng.Intn(20), 1+rng.Intn(20)
		m := randomCSR(rng, r, c, 0.3)
		x := randomVec(rng, c)
		want := denseMulVec(m.Dense(), r, c, x)
		densesEqual(t, m.MulVec(x), want, 1e-12, "CSR MulVec")
		densesEqual(t, m.ToCSC().MulVec(x), want, 1e-12, "CSC MulVec")
	}
}

func TestMulVecShapePanics(t *testing.T) {
	m := Identity(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	m.MulVec([]float64{1, 2})
}

func TestAddSub(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		r, c := 1+rng.Intn(12), 1+rng.Intn(12)
		a := randomCSR(rng, r, c, 0.3)
		b := randomCSR(rng, r, c, 0.3)
		sum := Add(a, b).Dense()
		diff := Sub(a, b).Dense()
		da, db := a.Dense(), b.Dense()
		for i := range da {
			if math.Abs(sum[i]-(da[i]+db[i])) > 1e-14 {
				t.Fatalf("Add entry %d wrong", i)
			}
			if math.Abs(diff[i]-(da[i]-db[i])) > 1e-14 {
				t.Fatalf("Sub entry %d wrong", i)
			}
		}
	}
}

func TestScale(t *testing.T) {
	m := NewCSR(2, 2, []Coord{{0, 0, 2}, {1, 1, -3}})
	m.Scale(0.5)
	if m.At(0, 0) != 1 || m.At(1, 1) != -1.5 {
		t.Fatalf("Scale wrong: %v", m.Dense())
	}
	mc := NewCSC(2, 2, []Coord{{0, 0, 2}})
	mc.Scale(2)
	if mc.At(0, 0) != 4 {
		t.Fatal("CSC Scale wrong")
	}
}

func TestDrop(t *testing.T) {
	m := NewCSR(2, 3, []Coord{{0, 0, 0.5}, {0, 2, 1e-9}, {1, 1, -0.2}, {1, 2, -1e-12}})
	d := m.Drop(1e-6)
	if d.NNZ() != 2 {
		t.Fatalf("Drop kept %d entries, want 2", d.NNZ())
	}
	if d.At(0, 0) != 0.5 || d.At(1, 1) != -0.2 {
		t.Fatal("Drop removed wrong entries")
	}
	// CSC drop matches.
	dc := m.ToCSC().Drop(1e-6)
	if !reflect.DeepEqual(d.Dense(), dc.Dense()) {
		t.Fatal("CSC Drop disagrees with CSR Drop")
	}
	// Original untouched.
	if m.NNZ() != 4 {
		t.Fatal("Drop mutated the receiver")
	}
}

func TestPrune(t *testing.T) {
	m := NewCSR(2, 2, []Coord{{0, 0, 1}, {0, 1, -1}, {0, 1, 1}}) // (0,1) cancels
	if m.NNZ() != 2 {
		t.Fatalf("construction kept %d entries", m.NNZ())
	}
	p := m.Prune()
	if p.NNZ() != 1 || p.At(0, 0) != 1 {
		t.Fatalf("Prune wrong: nnz=%d", p.NNZ())
	}
}

func TestDenseFromDenseRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		r, c := 1+rng.Intn(10), 1+rng.Intn(10)
		m := randomCSR(rng, r, c, 0.4)
		back := FromDense(r, c, m.Dense())
		if !reflect.DeepEqual(m.Dense(), back.Dense()) {
			t.Fatal("FromDense(Dense()) changed matrix")
		}
	}
}

func TestRowColAccessors(t *testing.T) {
	m := NewCSR(3, 3, []Coord{{1, 0, 4}, {1, 2, 5}})
	cols, vals := m.Row(1)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 || vals[0] != 4 || vals[1] != 5 {
		t.Fatalf("Row(1) = %v %v", cols, vals)
	}
	mc := m.ToCSC()
	rows, cvals := mc.Col(2)
	if len(rows) != 1 || rows[0] != 1 || cvals[0] != 5 {
		t.Fatalf("Col(2) = %v %v", rows, cvals)
	}
}

// Property: MulVec is linear: A(αx + βy) = αAx + βAy.
func TestQuickMulVecLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	f := func(seed int64, alpha, beta int8) bool {
		lr := rand.New(rand.NewSource(seed))
		r, c := 1+lr.Intn(15), 1+lr.Intn(15)
		m := randomCSR(rng, r, c, 0.3)
		x, y := randomVec(rng, c), randomVec(rng, c)
		a, b := float64(alpha), float64(beta)
		comb := make([]float64, c)
		for i := range comb {
			comb[i] = a*x[i] + b*y[i]
		}
		lhs := m.MulVec(comb)
		mx, my := m.MulVec(x), m.MulVec(y)
		for i := range lhs {
			if math.Abs(lhs[i]-(a*mx[i]+b*my[i])) > 1e-9*(1+math.Abs(lhs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Add is commutative and Sub(a,a) is zero.
func TestQuickAddSub(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		r, c := 1+lr.Intn(12), 1+lr.Intn(12)
		a := randomCSR(rng, r, c, 0.3)
		b := randomCSR(rng, r, c, 0.3)
		if !reflect.DeepEqual(Add(a, b).Dense(), Add(b, a).Dense()) {
			return false
		}
		for _, v := range Sub(a, a).Dense() {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
