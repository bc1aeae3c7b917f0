package ckpt

import "hash/crc32"

// CRC combination, ported from zlib's crc32_combine: for runs A and B,
// crc(A‖B) = crc(A)·x^(8·len(B)) ⊕ crc(B) mod P, with the CRCs and P in
// the reflected bit order hash/crc32 uses. The pre- and post-inversion
// of the standard CRC cancel out of that identity, so the finished
// checksums combine as they are.

// Sum is the checksum of an immutable byte run in the form Writer.Ref
// folds into a trailer: its CRC-32C and CRC-32, and for each polynomial
// the shift x^(8·len) that carries a preceding CRC past the run.
type Sum struct {
	n              int
	crcC, crcI     uint32
	shiftC, shiftI uint32
}

// SumOf checksums p for Writer.Ref.
func SumOf(p []byte) Sum {
	return Sum{
		n:    len(p),
		crcC: crc32.Checksum(p, castagnoli), crcI: crc32.ChecksumIEEE(p),
		shiftC: polyC.shift(len(p)), shiftI: polyI.shift(len(p)),
	}
}

// Len returns the length of the run s is the checksum of.
func (s Sum) Len() int { return s.n }

// Append returns the Sum of s's run followed by t's run.
func (s Sum) Append(t Sum) Sum {
	return Sum{
		n:    s.n + t.n,
		crcC: polyC.combine(s.crcC, t.crcC, t.shiftC), crcI: polyI.combine(s.crcI, t.crcI, t.shiftI),
		shiftC: polyC.mul(s.shiftC, t.shiftC), shiftI: polyI.mul(s.shiftI, t.shiftI),
	}
}

// TrimPrefix returns the Sum of s's run less its first p.Len() bytes,
// given p, their Sum: crc(B) = crc(A‖B) ⊕ crc(A)·x^(8·len(B)).
func (s Sum) TrimPrefix(p Sum) Sum {
	n := s.n - p.n
	shC, shI := polyC.shift(n), polyI.shift(n)
	return Sum{
		n:    n,
		crcC: s.crcC ^ polyC.mul(shC, p.crcC), crcI: s.crcI ^ polyI.mul(shI, p.crcI),
		shiftC: shC, shiftI: shI,
	}
}

// crcPoly is a reflected CRC-32 polynomial with its powers x^(2^k).
type crcPoly struct {
	p   uint32
	x2n [32]uint32 // x^(2^k) mod p
}

var (
	polyC = newCRCPoly(crc32.Castagnoli)
	polyI = newCRCPoly(crc32.IEEE)
)

func newCRCPoly(p uint32) *crcPoly {
	c := &crcPoly{p: p}
	x := uint32(1) << 30 // x^1
	for k := range c.x2n {
		c.x2n[k] = x
		x = c.mul(x, x)
	}
	return c
}

// mul returns a·b mod p (zlib's multmodp, without branches): bit 31 of
// a is the coefficient of x^0, and each step multiplies b by x.
func (c *crcPoly) mul(a, b uint32) uint32 {
	var prod uint32
	for range 32 {
		prod ^= b & -(a >> 31)
		a <<= 1
		b = b>>1 ^ c.p&-(b&1)
	}
	return prod
}

// shift returns x^(8n) mod p (zlib's x2nmodp(n, 3)).
func (c *crcPoly) shift(n int) uint32 {
	x := uint32(1) << 31 // x^0
	for k := 3; n > 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			x = c.mul(c.x2n[k&31], x)
		}
	}
	return x
}

// combine returns the CRC of A‖B from crc(A), crc(B) and B's shift.
func (c *crcPoly) combine(crcA, crcB, shiftB uint32) uint32 {
	return c.mul(shiftB, crcA) ^ crcB
}
