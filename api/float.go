package api

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// decimal is a JSON number literal in the form the float kernel
// converts, gathered by parser.number in the scan that finds the
// literal: man × 10^exp10, negated when neg, and exp10 0 when man is 0.
// long marks a literal of more than 19 significant digits, which man
// cannot hold. (Four fields and no slice keep it in registers.)
type decimal struct {
	man       uint64
	exp10     int
	neg, long bool
}

// convert converts d, scanned from lit, exactly as
// strconv.ParseFloat(lit, 64) does, and reports false where ParseFloat
// fails (a literal out of float64 range). Every path rounds correctly,
// so the bits are ParseFloat's:
//   - a mantissa of at most 53 bits times a power of ten up to 1e22,
//     both exact in float64, takes one IEEE multiply or divide;
//   - any other takes Eisel–Lemire over the 128-bit powers of ten;
//   - a long literal, an exponent beyond the table, or a result
//     Eisel–Lemire cannot decide (a near-halfway product, an overflow
//     or a subnormal) goes to strconv.ParseFloat itself.
func (d decimal) convert(lit []byte) (float64, bool) {
	if !d.long {
		if d.man>>53 == 0 && -22 <= d.exp10 && d.exp10 <= 22 {
			f := float64(d.man)
			if d.neg {
				f = -f
			}
			if d.exp10 >= 0 {
				return f * exactPow10[d.exp10], true
			}
			return f / exactPow10[-d.exp10], true
		}
		if f, ok := eiselLemire(d.man, d.exp10, d.neg); ok {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// exactPow10 holds the powers of ten that float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// eiselLemire is the Eisel–Lemire conversion of man × 10^exp10 for a
// nonzero man (https://nigeltao.github.io/blog/2020/eisel-lemire.html),
// the algorithm strconv.ParseFloat tries before its slow path. It
// reports false when it cannot decide the correctly rounded result, and
// for a result that is not a normal float64.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < minPow10 || exp10 >= minPow10+len(pow10) {
		return 0, false
	}
	pow := &pow10[exp10-minPow10]
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// The product's top bits, widened by the table entry's low half
	// only when a carry from below could reach them.
	hi, lo := bits.Mul64(man, pow[1])
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}

	// Keep 54 bits; a product exactly halfway between two floats is
	// ambiguous here.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}

	// Round to 53 bits, half to even.
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// minPow10 is the exponent of pow10's first entry.
const minPow10 = -348

// pow10 holds 10^e for e in [-348, 347] as 128-bit mantissas, rounded
// down with the top bit set: entry [1] is the high half, [0] the low.
// The binary exponent is implied by eiselLemire's linear formula. The
// entries are those of strconv's own table, computed here exactly.
var pow10 = func() (t [696][2]uint64) {
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for i := range t {
		e := i + minPow10
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		if e >= 0 {
			// 10^e shifted to 128 bits: left, or right (rounding down).
			if s := p.BitLen() - 128; s > 0 {
				p.Rsh(p, uint(s))
			} else {
				p.Lsh(p, uint(-s))
			}
		} else {
			// floor(2^k / 10^-e) for the k that leaves 128 bits: 10^-e is
			// no power of two, so the quotient lies in (2^127, 2^128).
			k := uint(127 + p.BitLen())
			p.Quo(new(big.Int).Lsh(big.NewInt(1), k), p)
		}
		t[i][0] = new(big.Int).And(p, mask).Uint64()
		t[i][1] = p.Rsh(p, 64).Uint64()
	}
	return t
}()
