package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"reflect"
	"strconv"
	"sync"
)

// DecodeStrict decodes exactly one JSON value from r into v, rejecting
// unknown fields and trailing garbage. The server uses it for every
// request body so client typos (a misspelled field would otherwise be
// silently zero) and concatenated bodies fail loudly with a 400.
//
// The chunk-carrying bodies, *FramesRequest and *JournalAppend, are
// read whole and parsed in one pass by a decoder of the encoding
// json.Marshal and ChunkFlight produce (any key order and JSON
// whitespace accepted). Anything else it meets — null, escaped,
// duplicate or case-folded keys, numbers a field cannot hold, malformed
// input — sends the whole body to encoding/json, so which bodies are
// accepted, the errors returned and the values decoded are exactly
// those of encoding/json. A FramesRequest decoded on the fast path
// keeps its body bytes for EncodeChunk; it must be treated as
// read-only, because modifying it would not change those bytes. The
// decoded samples never share the body's memory, so they outlive it.
//
// *CheckedChunk and *CheckedAppend take the bodies *FramesRequest and
// *JournalAppend take, through the same parser in check mode: it
// builds no slices and converts a sample only when the conversion could
// fail, so a hop that forwards a chunk without reading its samples
// accepts exactly what a full decode accepts, with the same errors, at
// a fraction of the cost. The full decodes are the reference: a checked
// chunk's bytes are the ones EncodeChunk gives for the same body decoded
// in full.
//
// FuzzDecodeFrames and FuzzDecodeJournalAppend hold the full decode to
// encoding/json on any input; FuzzCheckFrames and
// FuzzCheckJournalAppend hold the checked decode to the full one.
//
// Such a body is read into a buffer of exactly the size a Len method
// reports (bytes.Reader, strings.Reader, bytes.Buffer); other types are
// decoded by encoding/json straight from r. DecodeStrict's buffers are
// never pooled, so its targets keep their bytes for good; DecodeRequest
// reads into pooled buffers that the target's Release gives back.
func DecodeStrict(r io.Reader, v any) error {
	size := int64(-1)
	if l, ok := r.(interface{ Len() int }); ok {
		size = int64(l.Len())
	}
	return decodeStrict(r, size, v, false)
}

// DecodeRequest is DecodeStrict over an HTTP request body, sized from
// its declared Content-Length. The declared length is a hint, not a
// promise: the up-front allocation is capped (see maxPresize) and the
// buffer grows only as bytes actually arrive, so a client claiming a
// huge body it never sends costs no more than the bytes it sent.
//
// A *FramesRequest, *CheckedChunk or *CheckedAppend body is read into a
// buffer from the chunk pool. When the fast path keeps the body's bytes,
// the target holds the buffer until its Release method returns it;
// otherwise the buffer goes back before DecodeRequest returns. A target
// that is never released leaves its buffer to the garbage collector.
func DecodeRequest(r *http.Request, v any) error {
	return decodeStrict(r.Body, r.ContentLength, v, true)
}

func decodeStrict(r io.Reader, size int64, v any, pooled bool) error {
	// fast parses the body; when it gives up, slow (encoding/json into v
	// when nil) decodes it. Only a zero FramesRequest or JournalAppend
	// takes the fast path: encoding/json would merge a body into a
	// non-zero one. A checked target is decode-only and always
	// overwritten. owner is the field of a target that can Release a
	// pooled buffer.
	var (
		fast  func(p *parser) bool
		slow  func(src io.Reader) error
		owner *Body
	)
	switch v := v.(type) {
	case *FramesRequest:
		if v != nil && reflect.ValueOf(*v).IsZero() {
			fast = func(p *parser) bool { return p.frames(v) }
			owner = &v.body
		}
	case *JournalAppend:
		if v != nil && reflect.ValueOf(*v).IsZero() {
			fast = func(p *parser) bool { return p.journalAppend(v) }
		}
	case *CheckedChunk:
		if v != nil {
			*v = CheckedChunk{}
			fast = func(p *parser) bool { return p.checkFrames(v) }
			owner = &v.body
			slow = func(src io.Reader) (err error) {
				var req FramesRequest
				if err := decodeJSON(src, &req); err != nil {
					return err
				}
				*v, err = CheckChunk(req)
				return err
			}
		}
	case *CheckedAppend:
		if v != nil {
			*v = CheckedAppend{}
			fast = func(p *parser) bool { return p.checkAppend(v) }
			owner = &v.Chunk.body
			slow = func(src io.Reader) error {
				var a JournalAppend
				if err := decodeJSON(src, &a); err != nil {
					return err
				}
				chunk, err := CheckChunk(a.Chunk)
				*v = CheckedAppend{SchemaVersion: a.SchemaVersion, Seq: a.Seq, Request: a.Request, Chunk: chunk}
				return err
			}
		}
	}
	if fast == nil {
		return decodeJSON(r, v)
	}
	var buf Body
	if pooled && owner != nil {
		buf = chunkClass.get()
	}
	body, err := readBody(r, size, buf.Bytes(), chunkClass.presize)
	buf.set(body)
	var src io.Reader
	if err != nil {
		// encoding/json meets the same bytes followed by the same error,
		// so the outcome is the one it always reported: a syntax error
		// already in the prefix, or the read error itself (such as
		// http.MaxBytesReader's "request body too large").
		src = io.MultiReader(bytes.NewReader(body), errReader{err})
	} else {
		p := parsers.Get().(*parser)
		p.b, p.i = body, 0
		ok := p.value(fast)
		p.b = nil
		parsers.Put(p)
		if ok {
			if owner != nil {
				*owner = buf
			}
			return nil
		}
		// The fast path may have filled part of the target before
		// giving up.
		reflect.ValueOf(v).Elem().SetZero()
		src = bytes.NewReader(body)
	}
	// encoding/json copies what it keeps, so the body is free once it
	// returns.
	defer buf.Release()
	if slow != nil {
		return slow(src)
	}
	return decodeJSON(src, v)
}

// decodeJSON is the encoding/json path: the reference every other path
// must agree with.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("api: decode: %w", err)
	}
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return fmt.Errorf("api: decode: trailing data after JSON body")
	}
	return nil
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// EncodeChunk returns the JSON body of req. A request DecodeStrict
// decoded on its fast path returns the body bytes it was decoded from,
// unchanged and shared — the caller must not modify them — so a chunk
// is never re-encoded on its way to the journal, the owner replica or
// a follower. Any other request, a released one included, is
// marshalled with encoding/json.
func EncodeChunk(req FramesRequest) ([]byte, error) {
	if req.wire != nil {
		return req.wire, nil
	}
	return json.Marshal(req)
}

// Release drops req's body bytes and, when DecodeRequest read them into
// a pooled buffer, returns the buffer to the pool. The decoded fields
// stay valid: they never share the body's memory. Call it once the
// bytes are written where they go, and only on a request no one else
// holds: any slice EncodeChunk returned before is then invalid.
func (req *FramesRequest) Release() {
	req.wire = nil
	req.body.Release()
}

// CheckedChunk is a FramesRequest body that DecodeStrict has checked
// but not decoded: the body is exactly one a *FramesRequest target
// accepts, yet only Seq and Close are read out of it. It is what a hop
// that forwards or journals a chunk without reading its samples holds.
// The zero value holds no chunk; a CheckedChunk comes from DecodeStrict
// or CheckChunk.
type CheckedChunk struct {
	Seq   int
	Close bool

	// wire is the chunk's JSON body: a sub-slice of the bytes it was
	// checked in when the fast path took it, EncodeChunk's bytes of the
	// decoded request otherwise.
	wire []byte
	// body is the pooled buffer DecodeRequest read wire into, as a
	// chunk or inside an append; the zero Body otherwise.
	body Body
}

// Bytes returns the chunk's JSON body — the bytes EncodeChunk returns
// for the same body decoded into a FramesRequest. They are shared: the
// caller must not modify them.
func (c CheckedChunk) Bytes() []byte { return c.wire }

// Release is FramesRequest.Release for a checked chunk: its Bytes
// become nil, so forwarding or journalling a released chunk fails
// instead of sending bytes the pool has handed to another body. Call it
// once the bytes have gone where they go — for a chunk forwarded with
// httpretry.Client.Do, once the last Do that sends them has returned —
// and on one copy only: copies of a CheckedChunk share its buffer.
func (c *CheckedChunk) Release() {
	c.wire = nil
	c.body.Release()
}

// CheckChunk returns the checked form of req, carrying EncodeChunk's
// bytes.
func CheckChunk(req FramesRequest) (CheckedChunk, error) {
	wire, err := EncodeChunk(req)
	return CheckedChunk{Seq: req.Seq, Close: req.Close, wire: wire}, err
}

// CheckedAppend is a JournalAppend whose chunk is checked, not decoded:
// the replication envelope as a follower, which journals the chunk
// without reading its samples, needs it.
type CheckedAppend struct {
	SchemaVersion string
	Seq           int
	Request       SessionRequest
	// Chunk holds the pooled buffer DecodeRequest read the whole append
	// into; its bytes are a sub-slice of it.
	Chunk CheckedChunk
}

// Release is CheckedChunk.Release of the append's chunk.
func (a *CheckedAppend) Release() { a.Chunk.Release() }

// EncodeJournalAppend sets b to the JSON body of a: json.Marshal of the
// equivalent JournalAppend, except that the chunk is spliced in as its
// Bytes, so a chunk checked in a client's body goes on as received. It
// reuses b's buffer, taking one from the chunk pool when b holds none,
// so a loop encoding one append after another fills one buffer.
func (b *Body) EncodeJournalAppend(a CheckedAppend) error {
	version, err := json.Marshal(a.SchemaVersion)
	if err != nil {
		return err
	}
	req, err := json.Marshal(a.Request)
	if err != nil {
		return err
	}
	if b.buf == nil {
		*b = chunkClass.get()
	}
	out := (*b.buf)[:0]
	out = append(out, `{"schema_version":`...)
	out = append(out, version...)
	out = append(out, `,"seq":`...)
	out = strconv.AppendInt(out, int64(a.Seq), 10)
	out = append(out, `,"request":`...)
	out = append(out, req...)
	out = append(out, `,"chunk":`...)
	out = append(out, a.Chunk.Bytes()...)
	b.set(append(out, '}'))
	return nil
}

// parser is the fast path of DecodeStrict: a single-pass reader of one
// JSON body in the canonical shape. Every method reports false on
// anything it does not handle, and the caller then hands the whole body
// to encoding/json. A float's digits are gathered in the scan that
// finds its literal and converted by the float kernel (float.go), which
// rounds correctly on every path and so gives the bits of the
// strconv.ParseFloat call encoding/json makes; integers go through
// strconv.ParseInt, as in encoding/json.
//
// Check mode (the check* methods) walks a chunk with the same grammar,
// keys and rules but stores no sample, and skips the conversion of a
// literal that cannot fail; it therefore accepts exactly the bodies
// full mode accepts.
//
// The scratch slices collect the elements of one array at a time; each
// array is then copied into a slice of exactly its length. They are
// reused across bodies through the parsers pool.
type parser struct {
	b []byte
	i int

	nums  []float64
	chans [][]float64
	audio []AudioFrame
	imu   []IMUSample
	gps   []GPSSample
}

var parsers = sync.Pool{New: func() any { return new(parser) }}

// Object keys in field order, matched exactly: encoding/json's
// case-insensitive matching is left to the fallback.
var (
	framesKeys = []string{"seq", "audio", "imu", "gps", "close"}
	audioKeys  = []string{"start_seconds", "rate_hz", "samples"}
	imuKeys    = []string{"time_seconds", "accel", "gyro", "att"}
	gpsKeys    = []string{"time_seconds", "pos", "vel"}
	vecKeys    = []string{"x", "y", "z"}
	quatKeys   = []string{"w", "x", "y", "z"}
	appendKeys = []string{"schema_version", "seq", "request", "chunk"}
)

// value parses the whole body as one top-level value with parse,
// allowing only whitespace around it.
func (p *parser) value(parse func(p *parser) bool) bool {
	if !parse(p) {
		return false
	}
	p.ws()
	return p.i == len(p.b)
}

func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c after optional whitespace.
func (p *parser) eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object parses an object whose keys are all in keys, calling field
// with each key's index to parse its value. A repeated key fails.
func (p *parser) object(keys []string, field func(k int) bool) bool {
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	var seen uint
	for {
		k := p.key(keys)
		if k < 0 || seen&(1<<k) != 0 || !p.eat(':') || !field(k) {
			return false
		}
		seen |= 1 << k
		if p.eat(',') {
			continue
		}
		return p.eat('}')
	}
}

// key parses an object key and returns its index in keys, or -1.
func (p *parser) key(keys []string) int {
	if !p.eat('"') {
		return -1
	}
	end := bytes.IndexByte(p.b[p.i:], '"')
	if end < 0 {
		return -1
	}
	k := p.b[p.i : p.i+end]
	p.i += end + 1
	for i, want := range keys {
		if string(k) == want {
			return i
		}
	}
	return -1
}

// array parses an array, each element into a scratch slot by elem, and
// returns the elements in a slice of exactly their count (non-nil even
// when empty, as encoding/json decodes []).
func array[T any](p *parser, scratch *[]T, elem func(*T) bool) ([]T, bool) {
	if !p.eat('[') {
		return nil, false
	}
	buf := (*scratch)[:0]
	defer func() {
		clear(buf) // the pooled scratch must not keep decoded slices alive
		*scratch = buf[:0]
	}()
	if !p.eat(']') {
		for {
			var zero T
			buf = append(buf, zero)
			if !elem(&buf[len(buf)-1]) {
				return nil, false
			}
			if p.eat(',') {
				continue
			}
			if !p.eat(']') {
				return nil, false
			}
			break
		}
	}
	out := make([]T, len(buf))
	copy(out, buf)
	return out, true
}

// each parses an array, calling elem to parse each element: array's
// grammar for check mode. array keeps its own loop because, built on
// each, the full decode of a 0.5 s chunk measured about 10% slower
// (BenchmarkDecodeChunk/full, median of ten interleaved runs, 2 CPUs).
func (p *parser) each(elem func() bool) bool {
	if !p.eat('[') {
		return false
	}
	if p.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if p.eat(',') {
			continue
		}
		return p.eat(']')
	}
}

// number scans a JSON number and returns its literal (nil when none),
// the decimal form the float kernel converts, gathered in the same scan,
// whether the literal has neither fraction nor exponent, and whether
// strconv.ParseFloat certainly accepts it. ParseFloat rejects a
// well-formed literal only when it overflows (1e-400 parses to 0
// without error), and a literal of at most 308 integer digits with no
// exponent or a negative one stays below 1e308 < math.MaxFloat64.
func (p *parser) number() (lit []byte, d decimal, isInt, fits bool) {
	p.ws()
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		d.neg = true
		i++
	}
	// The digits gather into d.man, which wraps past 19 of them; nd
	// counts them.
	first, nd := i, 0
	switch {
	case i < len(b) && b[i] == '0':
		i++
		nd, fits = 1, true
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		j := i
		i, d.man = digits(b, i, 0)
		nd, fits = i-j, i-j <= 308
	default:
		return nil, decimal{}, false, false
	}
	isInt = true
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		i, d.man = digits(b, i, d.man)
		if i == j {
			return nil, decimal{}, false, false
		}
		nd += i - j
		d.exp10 = j - i
		isInt = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := i < len(b) && b[i] == '-'
		fits = fits && neg
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		// Past 10000 the exponent is beyond the kernel's range whatever
		// its digits, as in strconv.
		j, e := i, 0
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return nil, decimal{}, false, false
		}
		if neg {
			e = -e
		}
		d.exp10 += e
		isInt = false
	}
	if nd > 19 {
		// Zeros before the first significant digit do not count.
		for _, c := range b[first:i] {
			if c == '0' {
				nd--
			} else if c != '.' {
				break
			}
		}
		d.long = nd > 19
	}
	if d.man == 0 {
		d.exp10 = 0
	}
	lit, p.i = b[p.i:i], i
	return lit, d, isInt, fits
}

// digits scans the ASCII digits from b[i], appending them to man (which
// wraps past 19 digits), and returns the index past them. It reads
// eight bytes at a time while eight remain.
func digits(b []byte, i int, man uint64) (int, uint64) {
	for i+8 <= len(b) {
		n, v := digits8(b[i:])
		if n < 8 {
			return i + n, man*smallPow10[n] + v
		}
		// A constant step lets the next load start before this one is
		// classified.
		man = man*1e8 + v
		i += 8
	}
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		man = man*10 + uint64(b[i]-'0')
	}
	return i, man
}

// smallPow10 holds 10^n for the digit counts digits8 returns.
var smallPow10 = [...]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// digits8 counts the ASCII digits b starts with, up to eight, and
// returns their value, converting the eight bytes as one word (the SWAR
// method of simdjson and fast_float). b must hold eight bytes.
func digits8(b []byte) (n int, v uint64) {
	w := binary.LittleEndian.Uint64(b)
	// The lowest byte with its top bit set in either sum is the first
	// that is not a digit: the digits below it carry and borrow nothing
	// into it.
	n = bits.TrailingZeros64(((w+0x4646464646464646)|(w-0x3030303030303030))&0x8080808080808080) >> 3
	// The n digit values go to the top of the word over zeros, then
	// combine in pairs, quads and the eight.
	w = (w - 0x3030303030303030) << (64 - 8*n)
	w = w*10 + w>>8
	w = ((w&0x000000FF000000FF)*(100+1000000<<32) + (w>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
	return n, w
}

// float parses a number into a float64 field through the float kernel,
// which gives strconv.ParseFloat's bits, as encoding/json does; out of
// range falls back.
func (p *parser) float(dst *float64) bool {
	lit, d, _, _ := p.number()
	if lit == nil {
		return false
	}
	f, ok := d.convert(lit)
	if ok {
		*dst = f
	}
	return ok
}

// integer parses an integer literal into an int field: strconv.ParseInt,
// as encoding/json does; a fraction or exponent falls back.
func (p *parser) integer(dst *int) bool {
	lit, _, isInt, _ := p.number()
	if lit == nil || !isInt {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	if err != nil {
		return false
	}
	*dst = int(n)
	return true
}

// checkFloat is float in check mode: it converts the literal only when
// the conversion might fail, and stores nothing.
func (p *parser) checkFloat() bool {
	lit, d, _, fits := p.number()
	if lit == nil {
		return false
	}
	if fits {
		return true
	}
	_, ok := d.convert(lit)
	return ok
}

func (p *parser) boolean(dst *bool) bool {
	p.ws()
	switch {
	case bytes.HasPrefix(p.b[p.i:], []byte("true")):
		*dst = true
		p.i += 4
	case bytes.HasPrefix(p.b[p.i:], []byte("false")):
		*dst = false
		p.i += 5
	default:
		return false
	}
	return true
}

// jsonValue decodes the value at the cursor with encoding/json,
// strictly — for the small string and SessionRequest fields of a
// JournalAppend, where a hand-written parser would buy nothing.
func (p *parser) jsonValue(v any) bool {
	dec := json.NewDecoder(bytes.NewReader(p.b[p.i:]))
	dec.DisallowUnknownFields()
	if dec.Decode(v) != nil {
		return false
	}
	p.i += int(dec.InputOffset())
	return true
}

// frames parses a FramesRequest object, keeping its bytes as the
// request's wire form.
func (p *parser) frames(req *FramesRequest) bool {
	p.ws()
	start := p.i
	ok := p.object(framesKeys, func(k int) bool {
		var ok bool
		switch k {
		case 0:
			return p.integer(&req.Seq)
		case 1:
			req.Audio, ok = array(p, &p.audio, p.audioFrame)
		case 2:
			req.IMU, ok = array(p, &p.imu, p.imuSample)
		case 3:
			req.GPS, ok = array(p, &p.gps, p.gpsSample)
		default:
			return p.boolean(&req.Close)
		}
		return ok
	})
	if ok {
		req.wire = p.b[start:p.i]
	}
	return ok
}

func (p *parser) audioFrame(f *AudioFrame) bool {
	return p.object(audioKeys, func(k int) bool {
		switch k {
		case 0:
			return p.float(&f.StartSeconds)
		case 1:
			return p.float(&f.RateHz)
		}
		var ok bool
		f.Samples, ok = array(p, &p.chans, p.channel)
		return ok
	})
}

func (p *parser) channel(ch *[]float64) bool {
	var ok bool
	*ch, ok = array(p, &p.nums, p.float)
	return ok
}

func (p *parser) imuSample(s *IMUSample) bool {
	return p.object(imuKeys, func(k int) bool {
		switch k {
		case 0:
			return p.float(&s.TimeSeconds)
		case 1:
			return p.vec3(&s.Accel)
		case 2:
			return p.vec3(&s.Gyro)
		}
		return p.quat(&s.Att)
	})
}

func (p *parser) gpsSample(s *GPSSample) bool {
	return p.object(gpsKeys, func(k int) bool {
		switch k {
		case 0:
			return p.float(&s.TimeSeconds)
		case 1:
			return p.vec3(&s.Pos)
		}
		return p.vec3(&s.Vel)
	})
}

func (p *parser) vec3(v *Vec3) bool {
	return p.object(vecKeys, func(k int) bool {
		return p.float([...]*float64{&v.X, &v.Y, &v.Z}[k])
	})
}

func (p *parser) quat(q *Quat) bool {
	return p.object(quatKeys, func(k int) bool {
		return p.float([...]*float64{&q.W, &q.X, &q.Y, &q.Z}[k])
	})
}

// checkFrames is frames in check mode, into a CheckedChunk.
func (p *parser) checkFrames(c *CheckedChunk) bool {
	p.ws()
	start := p.i
	ok := p.object(framesKeys, func(k int) bool {
		switch k {
		case 0:
			return p.integer(&c.Seq)
		case 1:
			return p.each(p.checkAudioFrame)
		case 2:
			return p.each(func() bool { return p.checkSample(imuKeys) })
		case 3:
			return p.each(func() bool { return p.checkSample(gpsKeys) })
		}
		return p.boolean(&c.Close)
	})
	if ok {
		c.wire = p.b[start:p.i]
	}
	return ok
}

func (p *parser) checkAudioFrame() bool {
	return p.object(audioKeys, func(k int) bool {
		if k < 2 {
			return p.checkFloat()
		}
		return p.each(func() bool { return p.each(p.checkFloat) })
	})
}

// checkSample checks an IMU or a GPS sample, as keys says: a time, then
// Vec3s, and the attitude Quat that only an IMU sample has, at key 3.
func (p *parser) checkSample(keys []string) bool {
	return p.object(keys, func(k int) bool {
		switch k {
		case 0:
			return p.checkFloat()
		case 3:
			return p.checkFloats(quatKeys)
		}
		return p.checkFloats(vecKeys)
	})
}

// checkFloats checks an object of float64 fields named by keys: a Vec3
// or a Quat.
func (p *parser) checkFloats(keys []string) bool {
	return p.object(keys, func(int) bool { return p.checkFloat() })
}

// journalAppend parses a JournalAppend; its chunk takes the fast path
// and keeps its own sub-slice of the body as its wire form.
func (p *parser) journalAppend(a *JournalAppend) bool {
	return p.envelope(&a.SchemaVersion, &a.Seq, &a.Request, func() bool { return p.frames(&a.Chunk) })
}

// checkAppend is journalAppend with its chunk in check mode. An append
// without a chunk carries the zero request, whose encoding is {}.
func (p *parser) checkAppend(a *CheckedAppend) bool {
	ok := p.envelope(&a.SchemaVersion, &a.Seq, &a.Request, func() bool { return p.checkFrames(&a.Chunk) })
	if ok && a.Chunk.wire == nil {
		a.Chunk.wire = []byte("{}")
	}
	return ok
}

// envelope parses a JournalAppend object, its chunk by chunk.
func (p *parser) envelope(version *string, seq *int, req *SessionRequest, chunk func() bool) bool {
	return p.object(appendKeys, func(k int) bool {
		switch k {
		case 0:
			return p.jsonValue(version)
		case 1:
			return p.integer(seq)
		case 2:
			return p.jsonValue(req)
		}
		return chunk()
	})
}
