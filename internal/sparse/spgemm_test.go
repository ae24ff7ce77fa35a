package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func denseMul(a []float64, ar, ac int, b []float64, bc int) []float64 {
	out := make([]float64, ar*bc)
	for i := 0; i < ar; i++ {
		for k := 0; k < ac; k++ {
			av := a[i*ac+k]
			if av == 0 {
				continue
			}
			for j := 0; j < bc; j++ {
				out[i*bc+j] += av * b[k*bc+j]
			}
		}
	}
	return out
}

func TestMulMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 30; trial++ {
		p, q, r := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := randomCSR(rng, p, q, 0.3)
		b := randomCSR(rng, q, r, 0.3)
		got := Mul(a, b).Dense()
		want := denseMul(a.Dense(), p, q, b.Dense(), r)
		densesEqual(t, got, want, 1e-10, "Mul")
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randomCSR(rng, 8, 8, 0.4)
	densesEqual(t, Mul(Identity(8), a).Dense(), a.Dense(), 0, "I*A")
	densesEqual(t, Mul(a, Identity(8)).Dense(), a.Dense(), 0, "A*I")
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dimension mismatch")
		}
	}()
	Mul(Identity(3), Identity(4))
}

// Property: (AB)x == A(Bx).
func TestQuickMulAssociatesWithVec(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		p, q, r := 1+lr.Intn(12), 1+lr.Intn(12), 1+lr.Intn(12)
		a := randomCSR(rng, p, q, 0.3)
		b := randomCSR(rng, q, r, 0.3)
		x := randomVec(rng, r)
		lhs := Mul(a, b).MulVec(x)
		rhs := a.MulVec(b.MulVec(x))
		for i := range lhs {
			if math.Abs(lhs[i]-rhs[i]) > 1e-9*(1+math.Abs(rhs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an antihomomorphism, (AB)ᵀ = Bᵀ Aᵀ.
func TestQuickMulTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f := func(seed int64) bool {
		lr := rand.New(rand.NewSource(seed))
		p, q, r := 1+lr.Intn(10), 1+lr.Intn(10), 1+lr.Intn(10)
		a := randomCSR(rng, p, q, 0.3)
		b := randomCSR(rng, q, r, 0.3)
		lhs := Mul(a, b).Transpose().Dense()
		rhs := Mul(b.Transpose(), a.Transpose()).Dense()
		for i := range lhs {
			if math.Abs(lhs[i]-rhs[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
