package group

import "math/big"

// combRows is the comb's row count h: the exponent is cut into h rows of
// ⌈bits/h⌉ bits, and the table holds all 2^h products of the rows' bases.
const combRows = 8

// Comb computes G^e mod P with a fixed-base Lim–Lee comb. The exponent's
// bits are laid out as a combRows × cols matrix (bit j·cols+c in row j,
// column c). With B_j = G^(2^(j·cols)), table[i] is the product of the
// B_j for the bits j set in i, so a column's contribution is one table
// lookup, and the whole power is cols squarings and cols multiplies —
// against ~bits squarings and bits/4 multiplies for a windowed Exp.
//
// Every column multiplies once, an all-zero column by table[0] = 1, so
// the sequence of operations does not depend on the exponent. The table
// index does. Comb is immutable and safe for concurrent use.
type Comb struct {
	p, q  *big.Int
	cols  int
	table []*big.Int
}

// NewComb builds the comb table for G: 2^combRows elements (64 KB at
// 2048 bits), costing about one full exponentiation.
func (g *Group) NewComb() *Comb {
	cols := (g.Q.BitLen() + combRows - 1) / combRows
	table := make([]*big.Int, 1<<combRows)
	table[0] = big.NewInt(1)
	base := new(big.Int).Set(g.G) // B_j
	sq := new(big.Int)
	for j := 0; j < combRows; j++ {
		if j > 0 {
			for c := 0; c < cols; c++ {
				sq.Mul(base, base)
				base.Mod(sq, g.P)
			}
		}
		bit := 1 << j
		for i := 0; i < bit; i++ {
			table[bit|i] = g.Mul(table[i], base)
		}
	}
	return &Comb{p: g.P, q: g.Q, cols: cols, table: table}
}

// Pow returns G^exp mod P. G has order Q, so an exponent outside [0, Q)
// is first reduced mod Q.
func (c *Comb) Pow(exp *big.Int) *big.Int {
	e := exp
	if e.Sign() < 0 || e.Cmp(c.q) >= 0 {
		e = new(big.Int).Mod(exp, c.q)
	}
	acc := big.NewInt(1)
	prod, quo := new(big.Int), new(big.Int)
	for col := c.cols - 1; col >= 0; col-- {
		idx := 0
		for j := 0; j < combRows; j++ {
			idx |= int(e.Bit(j*c.cols+col)) << j
		}
		prod.Mul(acc, acc)
		quo.QuoRem(prod, c.p, acc)
		prod.Mul(acc, c.table[idx])
		quo.QuoRem(prod, c.p, acc)
	}
	return acc
}
