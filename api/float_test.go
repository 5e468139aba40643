package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// parseNumber runs lit through the parser's number scan and the float
// kernel. scanned reports a JSON number literal spanning all of lit; ok
// reports that the kernel converted it.
func parseNumber(lit []byte) (f float64, scanned, ok bool) {
	p := parser{b: lit}
	l, d, _, _ := p.number()
	if l == nil || p.i != len(lit) {
		return 0, false, false
	}
	f, ok = d.convert(l)
	return f, true, ok
}

// sameAsParseFloat asserts the kernel converts lit as strconv.ParseFloat
// does: it accepts exactly what ParseFloat accepts, with the same bits.
func sameAsParseFloat(t *testing.T, lit []byte) {
	t.Helper()
	got, scanned, ok := parseNumber(lit)
	if !scanned {
		t.Fatalf("%.60q: not scanned as a number", lit)
	}
	want, err := strconv.ParseFloat(string(lit), 64)
	if ok != (err == nil) {
		t.Fatalf("%.60q: kernel accepts %v, ParseFloat err %v", lit, ok, err)
	}
	if ok && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%.60q: kernel %x (%g), ParseFloat %x (%g)", lit, math.Float64bits(got), got, math.Float64bits(want), want)
	}
}

// hardLiterals are the literals each of the kernel's paths and its
// fallback must get right.
var hardLiterals = []string{
	// Halfway cases: the exact value lies between two floats.
	"9007199254740993",        // 2^53 + 1
	"2.2250738585072011e-308", // next to the smallest normal
	"1e23",                    // not exact; halfway in Eisel–Lemire's first product
	"8.98846567431158e307",
	"4.9e-324", // the smallest subnormal
	"2.2250738585072014e-308",
	"1.7976931348623157e308", // the largest float64
	"1.7976931348623158e308", // still rounds down to it
	"1234567890123456789",    // 19 significant digits
	"12345678901234567890",   // 20, a trailing zero
	"12345678901234567891",   // 20
	"0.1234567890123456789",
	"0.12345678901234567891",
	"0." + strings.Repeat("0", 400) + "1",
	"0." + strings.Repeat("0", 30) + "1234567890123456789",
	"-0",
	"-0.0e5",
	"0e99999999999999999999",
	"1e-400",
	"-1e-400",
	"1e22", "1e-22", "9007199254740991e22", "9007199254740992e-22",
	"123.456e-2", "-1.5E+3", "1E0", "5e-324", "2.4703282292062328e-324",
	"1" + strings.Repeat("0", 308),
	"1e309", // out of range: falls back and fails
	"-1e309",
	"1" + strings.Repeat("0", 309),
}

// TestDecodeHardLiterals decodes frames bodies whose samples are hard
// literals: each must decode, or fail, exactly as encoding/json decodes
// it, bit for bit and with its error text.
func TestDecodeHardLiterals(t *testing.T) {
	for _, lit := range hardLiterals {
		sameAsParseFloat(t, []byte(lit))
		body := `{"seq":1,"audio":[{"start_seconds":` + lit + `,"rate_hz":16000,"samples":[[` + lit + `,-1,` + lit + `]]}],` +
			`"imu":[{"time_seconds":0,"accel":{"x":` + lit + `},"gyro":{},"att":{"w":1}}]}`
		_, err := checkFrames(t, []byte(body))
		_, perr := strconv.ParseFloat(lit, 64)
		if (err == nil) != (perr == nil) {
			t.Errorf("literal %.40s: decode err %v, ParseFloat err %v", lit, err, perr)
		}
	}
}

// appendJSONFloat appends f as json.Marshal formats a float64: the
// shortest decimal that parses back to f, in exponent form below 1e-6
// and from 1e21 up, with a single-digit exponent kept to one digit.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if a := math.Abs(f); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// TestFloatKernelSweep holds the kernel to strconv.ParseFloat over a
// deterministic sweep of a million values: random float64 bit patterns
// in json.Marshal's form and at a random number of digits (exact,
// Eisel–Lemire, near-halfway and long literals), and random float32
// values widened to float64 — what a sample loaded from .sbf audio is —
// in json.Marshal's form.
func TestFloatKernelSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var buf []byte
	check := func(f float64) {
		buf = appendJSONFloat(buf[:0], f)
		sameAsParseFloat(t, buf)
		if rng.Intn(1000) == 0 {
			if b, err := json.Marshal(f); err != nil || !bytes.Equal(b, buf) {
				t.Fatalf("json.Marshal(%g) = %s, %v; the sweep formats %s", f, b, err, buf)
			}
		}
	}
	for i := 0; i < 1_000_000; i++ {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			check(f)
			buf = strconv.AppendFloat(buf[:0], f, 'e', rng.Intn(26), 64)
			sameAsParseFloat(t, buf)
		}
		if f := float64(math.Float32frombits(rng.Uint32())); !math.IsNaN(f) && !math.IsInf(f, 0) {
			check(f)
		}
	}
}

// TestPow10Table spot-checks the computed powers of ten against entries
// of strconv's table.
func TestPow10Table(t *testing.T) {
	for _, tc := range []struct {
		e      int
		hi, lo uint64
	}{
		{-348, 0xFA8FD5A0081C0288, 0x1732C869CD60E453},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x8000000000000000, 0},
		{43, 0xE596B7B0C643C719, 0x6D9CCD05D0000000},
		{347, 0xD13EB46469447567, 0x4B7195F2D2D1A9FB},
	} {
		if got := pow10[tc.e-minPow10]; got != [2]uint64{tc.lo, tc.hi} {
			t.Errorf("1e%d: %#x, want {%#x, %#x}", tc.e, got, tc.lo, tc.hi)
		}
	}
}

// FuzzParseNumber holds the kernel to strconv.ParseFloat on any bytes:
// for the number literal the parser scans at the start of the input,
// the kernel accepts exactly what ParseFloat accepts, with the same
// bits.
func FuzzParseNumber(f *testing.F) {
	for _, lit := range hardLiterals {
		f.Add([]byte(lit))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p := parser{b: b}
		if lit, _, _, _ := p.number(); lit != nil {
			sameAsParseFloat(t, lit)
		}
	})
}
