package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"soundboost/internal/acoustics"
	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
)

// referenceDecode is DecodeStrict as it was before the fast path:
// encoding/json with unknown fields rejected and a trailing-data check.
// The fast path must agree with it on every input.
func referenceDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errors.New("api: decode: " + err.Error())
	}
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return errors.New("api: decode: trailing data after JSON body")
	}
	return nil
}

// varyingFlight is a small flight with non-trivial values in every
// field, so a decoded chunk exercises signs, fractions and exponents.
func varyingFlight() *dataset.Flight {
	rec := &acoustics.Recording{SampleRate: 200}
	for m := range rec.Channels {
		rec.Channels[m] = make([]float64, 200)
		for i := range rec.Channels[m] {
			rec.Channels[m][i] = math.Sin(float64(i*(m+1))*0.37) * math.Pow(10, float64(i%7-3))
		}
	}
	f := &dataset.Flight{Name: "varying", Audio: rec}
	for i := 0; i < 10; i++ {
		x := float64(i) * 0.1
		f.Telemetry = append(f.Telemetry, dataset.TelemetrySample{
			Time:     x,
			IMUAccel: mathx.Vec3{X: -x, Y: 1e-9 * x, Z: 9.81},
			IMUGyro:  mathx.Vec3{X: x / 3, Y: -1e21, Z: 0},
			EstAtt:   mathx.Quat{W: 1, X: x / 7, Y: -x / 11, Z: 0.5},
			GPSPos:   mathx.Vec3{X: 123.456 * x, Y: -7, Z: -30},
			GPSVel:   mathx.Vec3{X: 1.5, Y: -x, Z: 2e-300},
		})
	}
	return f
}

// chunkBodies returns the JSON bodies of varyingFlight's chunks, as a
// client sends them.
func chunkBodies(t testing.TB) [][]byte {
	t.Helper()
	reqs, err := ChunkFlight(varyingFlight(), 0.05, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// checkFrames asserts DecodeStrict agrees with referenceDecode on body:
// same acceptance, same error text, the same values bit for bit, and
// wire bytes (when kept) that are the body's value itself. It returns
// what DecodeStrict returned.
func checkFrames(t *testing.T, body []byte) (FramesRequest, error) {
	t.Helper()
	var got, want FramesRequest
	gotErr := DecodeStrict(bytes.NewReader(body), &got)
	sameErr(t, body, gotErr, referenceDecode(body, &want))
	if got.wire != nil && !bytes.Equal(got.wire, bytes.Trim(body, " \t\r\n")) {
		t.Fatalf("body %.200q: wire %.200q is not the body's value", body, got.wire)
	}
	sameFrames(t, body, got, want)
	return got, gotErr
}

// sameErr asserts two decodes of body agree on acceptance and error
// text.
func sameErr(t *testing.T, body []byte, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("body %.200q: err %v, want %v", body, got, want)
	}
}

// sameFrames compares decoded requests ignoring the wire bytes, and
// their float bits through their JSON encoding (DeepEqual equates 0 and
// -0).
func sameFrames(t *testing.T, body []byte, got, want FramesRequest) {
	t.Helper()
	got.wire = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %.200q: decoded %+v, encoding/json %+v", body, got, want)
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if !bytes.Equal(g, w) {
		t.Fatalf("body %.200q: values differ in bits: %s vs %s", body, g, w)
	}
}

func FuzzDecodeFrames(f *testing.F) {
	for _, b := range chunkBodies(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkFrames(t, body)
	})
}

func FuzzDecodeJournalAppend(f *testing.F) {
	for _, b := range chunkBodies(f) {
		f.Add(spliceAppend(3, b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkJournalAppend(t, body)
	})
}

// checkJournalAppend is checkFrames for a JournalAppend body; a chunk
// whose bytes were kept must decode, on its own, to the same chunk.
func checkJournalAppend(t *testing.T, body []byte) (JournalAppend, error) {
	t.Helper()
	var got, want JournalAppend
	gotErr := DecodeStrict(bytes.NewReader(body), &got)
	sameErr(t, body, gotErr, referenceDecode(body, &want))
	if got.Chunk.wire != nil {
		var alone FramesRequest
		if err := referenceDecode(got.Chunk.wire, &alone); err != nil {
			t.Fatalf("body %.200q: chunk wire %.200q: %v", body, got.Chunk.wire, err)
		}
		sameFrames(t, body, got.Chunk, alone)
	}
	sameFrames(t, body, got.Chunk, want.Chunk)
	chunk := got.Chunk
	got.Chunk, want.Chunk = FramesRequest{}, FramesRequest{}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %.200q: decoded %+v, encoding/json %+v", body, got, want)
	}
	got.Chunk = chunk
	return got, gotErr
}

// spliceAppend is a JournalAppend body around a chunk body.
func spliceAppend(seq int, chunk []byte) []byte {
	return []byte(`{"schema_version":"v1","seq":` + strconv.Itoa(seq) +
		`,"request":{"flight":"varying","sample_rate_hz":200},"chunk":` + string(chunk) + `}`)
}

// TestDecodeFramesFastPath pins that the bodies clients actually send —
// compact or pretty-printed — take the fast path (they keep their
// bytes) and decode to what encoding/json decodes.
func TestDecodeFramesFastPath(t *testing.T) {
	for _, compact := range chunkBodies(t) {
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, compact, "", "  "); err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{compact, pretty.Bytes()} {
			got, _ := checkFrames(t, body)
			wire, err := EncodeChunk(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wire, body) {
				t.Fatalf("EncodeChunk re-encoded a decoded chunk:\n got %.200q\nwant %.200q", wire, body)
			}
		}
	}
}

// TestDecodeFramesFallback runs the inputs outside the canonical
// encoding — each must reach encoding/json and get its answer.
func TestDecodeFramesFallback(t *testing.T) {
	for _, body := range fallbackBodies {
		checkFrames(t, []byte(body))
	}
}

// fallbackBodies are frames bodies outside the canonical encoding, and
// malformed ones.
var fallbackBodies = []string{
	`{}`, `null`, ``, ` `, `[]`, `{"seq":1}garbage`, `{"seq":1} {}`, `{"seq":1}}`,
	`{"seq":null,"audio":null,"imu":null,"gps":null,"close":null}`,
	`{"imu":[{"time_seconds":1,"accel":null,"gyro":{"x":1},"att":{"w":1}}]}`,
	`{"audio":[{"samples":null}]}`, `{"audio":[{"samples":[null]}]}`, `{"audio":[null]}`,
	`{"seq":1,"seq":2}`, `{"SEQ":3}`, `{"seq":1,"SEQ":2}`, `{"seq":1}`, `{"seq":1,"bogus":2}`,
	`{"seq":01}`, `{"seq":1.0}`, `{"seq":1e2}`, `{"seq":-0}`, `{"seq":99999999999999999999}`,
	`{"seq":"1"}`, `{"close":"true"}`, `{"close":tru}`, `{"close":1}`,
	`{"audio":[{"start_seconds":1e999,"rate_hz":1,"samples":[[0]]}]}`,
	`{"audio":[{"start_seconds":-0,"rate_hz":-0.0,"samples":[[-0,1E-400,.5]]}]}`,
	`{"audio":[{"start_seconds":-,"samples":[]}]}`, `{"audio":[{"samples":[[1,]]}]}`,
	`{"audio":[],"imu":[],"gps":[]}`, `{"audio":[{"samples":[]}]}`, `{"audio":[{"samples":[[]]}]}`,
	`{"gps":[{"pos":{"x":1,"x":2}}]}`, `{"seq":1,}`, `{,}`, `{"seq"1}`,
	"\ufeff{}", "{\"seq\":\t1\r\n}", `{"audio":[{"rate_hz":16000,"samples":[[1.5e3,-2.25E-2]]}]} `,
}

// TestDecodeJournalAppendSplice pins the replication body: a spliced
// client chunk decodes to the same append as the re-encoded one, and
// for a chunk built in code Body.EncodeJournalAppend is json.Marshal
// exactly.
func TestDecodeJournalAppendSplice(t *testing.T) {
	reqs, err := ChunkFlight(varyingFlight(), 0.05, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	a := JournalAppend{SchemaVersion: Version, Seq: 7,
		Request: SessionRequest{Flight: "a<b>&c", SampleRateHz: 200, Precision: "float32"}, Chunk: reqs[1]}
	marshalled, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	checked := CheckedAppend{SchemaVersion: a.SchemaVersion, Seq: a.Seq, Request: a.Request}
	if checked.Chunk, err = CheckChunk(a.Chunk); err != nil {
		t.Fatal(err)
	}
	var body Body
	defer body.Release()
	if err := body.EncodeJournalAppend(checked); err != nil {
		t.Fatal(err)
	}
	if encoded := body.Bytes(); !bytes.Equal(encoded, marshalled) {
		t.Fatalf("EncodeJournalAppend differs from json.Marshal:\n%s\n%s", encoded, marshalled)
	}

	// A chunk checked in a pretty-printed client body is spliced in as
	// sent, and the follower decodes the same append.
	compact, _ := json.Marshal(reqs[1])
	var pretty bytes.Buffer
	_ = json.Indent(&pretty, compact, "", "\t")
	if err := DecodeStrict(bytes.NewReader(pretty.Bytes()), &checked.Chunk); err != nil {
		t.Fatal(err)
	}
	// The second append is encoded into the first one's buffer.
	if err := body.EncodeJournalAppend(checked); err != nil {
		t.Fatal(err)
	}
	spliced := body.Bytes()
	if !bytes.Contains(spliced, pretty.Bytes()) {
		t.Fatal("the client's chunk bytes were not spliced in")
	}
	var got JournalAppend
	if err := DecodeStrict(bytes.NewReader(spliced), &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Chunk.wire, pretty.Bytes()) {
		t.Fatal("the follower's chunk does not keep its sub-slice of the body")
	}
	var want JournalAppend
	if err := referenceDecode(marshalled, &want); err != nil {
		t.Fatal(err)
	}
	got.Chunk.wire = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spliced append decodes to %+v, want %+v", got, want)
	}
}

// TestDecodeStrictReadError pins that a body cut short by its reader
// reports what encoding/json reported, into a full or a checked target:
// the read error for a valid prefix (the server's 413), a syntax error
// found before it.
func TestDecodeStrictReadError(t *testing.T) {
	tooLarge := errors.New("http: request body too large")
	for _, tc := range []struct{ prefix, want string }{
		{`{"seq":1,"audio":[{"samples":[[1,2,3`, "api: decode: http: request body too large"},
		{`{"seq":x`, "api: decode: invalid character 'x' looking for beginning of value"},
		{`{"seq":1}`, "api: decode: trailing data after JSON body"},
	} {
		for _, target := range []any{new(FramesRequest), new(CheckedChunk)} {
			err := DecodeStrict(io.MultiReader(strings.NewReader(tc.prefix), errReader{tooLarge}), target)
			if err == nil || err.Error() != tc.want {
				t.Errorf("prefix %q into %T: err %v, want %q", tc.prefix, target, err, tc.want)
			}
			if strings.Contains(tc.want, "too large") && !errors.Is(err, tooLarge) {
				t.Errorf("prefix %q into %T: read error not wrapped: %v", tc.prefix, target, err)
			}
		}
	}
}

// TestDecodeStrictNonZeroTarget keeps encoding/json's merge semantics
// for a target that already holds values.
func TestDecodeStrictNonZeroTarget(t *testing.T) {
	got := FramesRequest{Seq: 4, Close: true}
	want := got
	body := []byte(`{"seq":5}`)
	if err := DecodeStrict(bytes.NewReader(body), &got); err != nil {
		t.Fatal(err)
	}
	if err := referenceDecode(body, &want); err != nil {
		t.Fatal(err)
	}
	sameFrames(t, body, got, want)
}

// BenchmarkDecodeChunk decodes one 0.5 s four-microphone 16 kHz chunk,
// the served path's unit of work, in full and in check mode.
func BenchmarkDecodeChunk(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rec := &acoustics.Recording{SampleRate: 16000}
	for m := range rec.Channels {
		rec.Channels[m] = make([]float64, 8000)
		for i := range rec.Channels[m] {
			rec.Channels[m][i] = rng.NormFloat64() * 0.1
		}
	}
	reqs, err := ChunkFlight(&dataset.Flight{Name: "bench", Audio: rec}, 0, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(reqs[0])
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		target func() any
	}{
		{"full", func() any { return new(FramesRequest) }},
		{"check", func() any { return new(CheckedChunk) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if err := DecodeStrict(bytes.NewReader(body), mode.target()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
