package group

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
)

// Differential tests for the group's fast kernels: the Jacobi-symbol
// subgroup test against Euler's criterion x^Q ≡ 1, and the fixed-base comb
// against a plain big.Int.Exp of the generator.

// fuzzPrime256 is a fixed 256-bit safe prime, so the fuzz corpus means the
// same group on every run (Generate draws a fresh one each time).
const fuzzPrime256 = "F30B20D4FC89926710EDD0553B47AA84C09C3D4EF803925EF0A8F128DE01DE03"

var (
	gen512Once sync.Once
	gen512Val  *Group
)

// kernelGroups returns the built-in groups plus a generated 512-bit one.
func kernelGroups(t testing.TB) map[string]*Group {
	t.Helper()
	gen512Once.Do(func() {
		g, err := Generate(512, nil)
		if err != nil {
			panic(err)
		}
		gen512Val = g
	})
	return map[string]*Group{
		"1536":    Default1536(),
		"2048":    Default2048(),
		"3072":    Default3072(),
		"gen512":  gen512Val,
		"fuzz256": mustFromHex(fuzzPrime256),
	}
}

// eulerIsElement is the reference subgroup test IsElement replaced.
func eulerIsElement(g *Group, x *big.Int) bool {
	if x.Sign() <= 0 || x.Cmp(g.P) >= 0 {
		return false
	}
	return new(big.Int).Exp(x, g.Q, g.P).Cmp(one) == 0
}

func TestIsElementMatchesEuler(t *testing.T) {
	for name, g := range kernelGroups(t) {
		t.Run(name, func(t *testing.T) {
			pm1 := new(big.Int).Sub(g.P, one)
			edges := []struct {
				name string
				x    *big.Int
				want bool
			}{
				{"0", big.NewInt(0), false},
				{"1", big.NewInt(1), true},
				{"G", g.G, true},
				{"P-1", pm1, false}, // -1 is a non-residue: P ≡ 3 (mod 4)
				{"P", g.P, false},
				{"P+1", new(big.Int).Add(g.P, one), false},
				{"2P+4", new(big.Int).Add(new(big.Int).Lsh(g.P, 1), big.NewInt(4)), false},
				{"-4", big.NewInt(-4), false},
			}
			for _, e := range edges {
				if got := g.IsElement(e.x); got != e.want {
					t.Errorf("IsElement(%s) = %v, want %v", e.name, got, e.want)
				}
				if got := eulerIsElement(g, e.x); got != e.want {
					t.Errorf("Euler reference(%s) = %v, want %v", e.name, got, e.want)
				}
			}
			seen := map[bool]int{}
			for i := 0; i < 64; i++ {
				x, err := rand.Int(rand.Reader, g.P)
				if err != nil {
					t.Fatal(err)
				}
				want := eulerIsElement(g, x)
				if got := g.IsElement(x); got != want {
					t.Fatalf("IsElement(%v) = %v, Euler says %v", x, got, want)
				}
				seen[want]++
			}
			if seen[true] == 0 || seen[false] == 0 {
				t.Errorf("64 random draws gave residues/non-residues %d/%d; both classes must be exercised", seen[true], seen[false])
			}
		})
	}
}

func TestCombMatchesExp(t *testing.T) {
	for name, g := range kernelGroups(t) {
		t.Run(name, func(t *testing.T) {
			c := g.NewComb()
			exps := map[string]*big.Int{
				"0":      big.NewInt(0),
				"1":      big.NewInt(1),
				"2":      big.NewInt(2),
				"Q-1":    new(big.Int).Sub(g.Q, one),
				"Q":      new(big.Int).Set(g.Q),
				"Q+1":    new(big.Int).Add(g.Q, one),
				"2^bits": new(big.Int).Lsh(one, uint(g.P.BitLen())),
			}
			for i := 0; i < 4; i++ {
				s, err := g.RandScalar(nil)
				if err != nil {
					t.Fatal(err)
				}
				exps["rand"+string(rune('0'+i))] = s
			}
			for en, e := range exps {
				want := new(big.Int).Exp(g.G, e, g.P)
				if got := c.Pow(e); got.Cmp(want) != 0 {
					t.Errorf("comb G^%s = %v, Exp gives %v", en, got, want)
				}
			}
			// G has order Q, so a negative exponent reduces to Q - |e|.
			want := new(big.Int).Exp(g.G, new(big.Int).Sub(g.Q, big.NewInt(3)), g.P)
			if got := c.Pow(big.NewInt(-3)); got.Cmp(want) != 0 {
				t.Error("comb G^-3 != G^(Q-3)")
			}
		})
	}
}

// FuzzGroupKernels checks both kernels against their references on
// arbitrary inputs over a fixed 256-bit group: IsElement (and so
// DecodeElement) against Euler's criterion, Comb.Pow against Exp.
func FuzzGroupKernels(f *testing.F) {
	g := mustFromHex(fuzzPrime256)
	if err := g.Validate(); err != nil {
		f.Fatal(err)
	}
	c := g.NewComb()
	f.Add([]byte{1}, []byte{0})
	f.Add([]byte{4}, []byte{1})
	f.Add(g.P.Bytes(), g.Q.Bytes())
	f.Add(new(big.Int).Sub(g.P, one).Bytes(), new(big.Int).Sub(g.Q, one).Bytes())
	f.Fuzz(func(t *testing.T, xb, eb []byte) {
		if len(xb) > 2*g.ElementLen() || len(eb) > 2*g.ElementLen() {
			return
		}
		x := new(big.Int).SetBytes(xb)
		want := eulerIsElement(g, x)
		if got := g.IsElement(x); got != want {
			t.Fatalf("IsElement(%x) = %v, Euler says %v", xb, got, want)
		}
		if x.Cmp(g.P) < 0 {
			_, err := g.DecodeElement(g.EncodeElement(x))
			if (err == nil) != want {
				t.Fatalf("DecodeElement(%x) err = %v, Euler says element=%v", xb, err, want)
			}
		}
		e := new(big.Int).SetBytes(eb)
		if got, want := c.Pow(e), new(big.Int).Exp(g.G, e, g.P); got.Cmp(want) != 0 {
			t.Fatalf("comb G^%x = %v, Exp gives %v", eb, got, want)
		}
	})
}

func BenchmarkIsElement2048(b *testing.B) {
	g := Default2048()
	x := g.Exp(g.G, big.NewInt(123456789))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.IsElement(x) {
			b.Fatal("generator power rejected")
		}
	}
}

func BenchmarkFixedBasePow2048(b *testing.B) {
	g := Default2048()
	c := g.NewComb()
	s, _ := g.RandScalar(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Pow(s)
	}
}
