package api

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// checkChunk asserts the checked decode of body agrees with the full
// one, which checkFrames holds to encoding/json: the same acceptance
// and error text, the same Seq and Close, and the bytes EncodeChunk
// returns for the decoded request. It returns the checked decode's
// error.
func checkChunk(t *testing.T, body []byte) error {
	t.Helper()
	want, wantErr := checkFrames(t, body)
	var got CheckedChunk
	gotErr := DecodeStrict(bytes.NewReader(body), &got)
	sameErr(t, body, gotErr, wantErr)
	if gotErr == nil {
		sameChecked(t, body, got, want)
	}
	return gotErr
}

// checkAppend is checkChunk for a JournalAppend body.
func checkAppend(t *testing.T, body []byte) error {
	t.Helper()
	want, wantErr := checkJournalAppend(t, body)
	var got CheckedAppend
	gotErr := DecodeStrict(bytes.NewReader(body), &got)
	sameErr(t, body, gotErr, wantErr)
	if gotErr != nil {
		return gotErr
	}
	if got.SchemaVersion != want.SchemaVersion || got.Seq != want.Seq || !reflect.DeepEqual(got.Request, want.Request) {
		t.Fatalf("body %.200q: checked %+v, decoded %+v", body, got, want)
	}
	sameChecked(t, body, got.Chunk, want.Chunk)
	return nil
}

func sameChecked(t *testing.T, body []byte, got CheckedChunk, want FramesRequest) {
	t.Helper()
	wire, err := EncodeChunk(want)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != want.Seq || got.Close != want.Close || !bytes.Equal(got.Bytes(), wire) {
		t.Fatalf("body %.200q: checked seq %d close %v bytes %.200q, decoded seq %d close %v bytes %.200q",
			body, got.Seq, got.Close, got.Bytes(), want.Seq, want.Close, wire)
	}
}

func FuzzCheckFrames(f *testing.F) {
	for _, b := range chunkBodies(f) {
		f.Add(b)
	}
	for _, b := range fallbackBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkChunk(t, body)
	})
}

func FuzzCheckJournalAppend(f *testing.F) {
	for _, b := range chunkBodies(f) {
		f.Add(spliceAppend(3, b))
	}
	for _, b := range fallbackBodies {
		f.Add(spliceAppend(1, []byte(b)))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAppend(t, body)
	})
}

// TestCheckEdgeLiterals pins the edge of check mode's skip rule: a
// sample literal with at most 308 integer digits and no positive
// exponent is accepted unconverted, and every other literal is
// converted, so the checked decode accepts and rejects exactly what
// encoding/json does.
func TestCheckEdgeLiterals(t *testing.T) {
	nines := strings.Repeat("9", 308)
	for _, tc := range []struct {
		lit string
		ok  bool
	}{
		{"1e-400", true},
		{"4.9e-324", true},
		{"-0", true},
		{"1.7976931348623157e308", true},
		{"1.7976931348623158e308", true},
		{"1.7976931348623159e308", false},
		{"1e309", false},
		{"-1e309", false},
		{"0e99999999999999999999", true},
		{"1" + strings.Repeat("0", 308), true},
		{"1" + strings.Repeat("0", 309), false},
		{nines, true},
		{nines + "9", false},
		{"-" + nines + ".9e-0", true},
		{"1E+0", true},
	} {
		for _, body := range []string{
			`{"audio":[{"start_seconds":0,"rate_hz":16000,"samples":[[1,` + tc.lit + `]]}]}`,
			`{"imu":[{"time_seconds":1,"accel":{"x":` + tc.lit + `},"gyro":{},"att":{"w":1}}]}`,
		} {
			if err := checkChunk(t, []byte(body)); (err == nil) != tc.ok {
				t.Errorf("literal %.40s: err %v, want accepted %v", tc.lit, err, tc.ok)
			}
			if err := checkAppend(t, spliceAppend(1, []byte(body))); (err == nil) != tc.ok {
				t.Errorf("literal %.40s in an append: err %v, want accepted %v", tc.lit, err, tc.ok)
			}
		}
	}
	// seq is an int, parsed by ParseInt as in full mode.
	if err := checkChunk(t, []byte(`{"seq":1e2}`)); err == nil {
		t.Error(`seq 1e2 accepted`)
	}
}

// TestCheckedTarget pins that a checked target is overwritten, not
// merged into.
func TestCheckedTarget(t *testing.T) {
	got := CheckedChunk{Seq: 4, Close: true, wire: []byte("stale")}
	if err := DecodeStrict(strings.NewReader(`{"audio":[]}`), &got); err != nil {
		t.Fatal(err)
	}
	if got.Seq != 0 || got.Close || string(got.Bytes()) != `{"audio":[]}` {
		t.Fatalf("checked into a non-zero target: %+v", got)
	}
}
