package oprf

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"math/big"
	"testing"
)

// TestEvaluateMatchesPlainExp pins the CRT evaluation to the definition
// y = x^d mod N, including inputs sharing a factor with N, where CRT is
// still exact.
func TestEvaluateMatchesPlainExp(t *testing.T) {
	srv := testServer(t)
	key := srv.key
	p, q := key.Primes[0], key.Primes[1]
	xs := map[string]*big.Int{
		"1":   big.NewInt(1),
		"2":   big.NewInt(2),
		"N-1": new(big.Int).Sub(key.N, big.NewInt(1)),
		"p":   new(big.Int).Set(p),
		"2q":  new(big.Int).Lsh(q, 1),
	}
	for i := 0; i < 8; i++ {
		x, err := rand.Int(rand.Reader, key.N)
		if err != nil {
			t.Fatal(err)
		}
		if x.Sign() == 0 {
			x.SetInt64(3)
		}
		xs["rand"+string(rune('0'+i))] = x
	}
	for name, x := range xs {
		got, err := srv.Evaluate(x)
		if err != nil {
			t.Fatalf("Evaluate(%s): %v", name, err)
		}
		if want := new(big.Int).Exp(x, key.D, key.N); got.Cmp(want) != 0 {
			t.Errorf("Evaluate(%s) = %v, x^d mod N = %v", name, got, want)
		}
	}
}

func TestNewServerFromKeyRefusesMultiPrime(t *testing.T) {
	key, err := rsa.GenerateMultiPrimeKey(rand.Reader, 3, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServerFromKey(key); err == nil {
		t.Error("3-prime key accepted")
	}
}

func TestNewServerFromKeyRefusesInvalidKey(t *testing.T) {
	key := testServer(t).key
	bad := &rsa.PrivateKey{
		PublicKey: key.PublicKey,
		D:         new(big.Int).Add(key.D, big.NewInt(2)),
		Primes:    key.Primes,
	}
	if _, err := NewServerFromKey(bad); err == nil {
		t.Error("key with a wrong private exponent accepted")
	}
}

// TestEvaluateFaultGuard corrupts Dp, standing in for a fault in the
// mod-p half: the result would be right mod q and wrong mod p, exactly the
// value that leaks the factorisation, so Evaluate must refuse to return it.
func TestEvaluateFaultGuard(t *testing.T) {
	key := *testServer(t).key // copy; the shared key stays intact
	key.Precomputed.Dp = new(big.Int).Add(key.Precomputed.Dp, big.NewInt(2))
	srv := &Server{key: &key}
	y, err := srv.Evaluate(hashToGroup([]byte("fault"), key.N))
	if !errors.Is(err, ErrEvalFault) {
		t.Fatalf("Evaluate with corrupted Dp: err = %v, want ErrEvalFault", err)
	}
	if y != nil {
		t.Error("faulty result released")
	}
}

func BenchmarkEvaluate2048(b *testing.B) {
	srv, err := NewServer(2048)
	if err != nil {
		b.Fatal(err)
	}
	x, err := rand.Int(rand.Reader, srv.key.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Evaluate(x); err != nil {
			b.Fatal(err)
		}
	}
}
