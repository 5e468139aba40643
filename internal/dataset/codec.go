package dataset

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"soundboost/internal/acoustics"
)

// flightHeader is the JSON metadata written alongside the binary audio.
type flightHeader struct {
	Name      string            `json:"name"`
	Mission   string            `json:"mission"`
	Scenario  ScenarioMeta      `json:"scenario"`
	Telemetry []TelemetrySample `json:"telemetry"`
	// AudioRate and AudioSamples describe the binary payload that follows.
	AudioRate    float64 `json:"audio_rate"`
	AudioSamples int     `json:"audio_samples"`
}

const audioMagic = "SBAU"

// Save writes the payload audioBlock frames at a time; a frame is one
// float32 sample per microphone.
const (
	audioBlock = 1024
	frameBytes = 4 * acoustics.NumMics
)

// Save writes the flight to w: a JSON header line followed by the raw
// little-endian float32 audio payload (channel-interleaved). float32 halves
// the footprint with no measurable effect on band energies.
func (f *Flight) Save(w io.Writer) error {
	samples := 0
	rate := 0.0
	if f.Audio != nil {
		samples = f.Audio.Samples()
		rate = f.Audio.SampleRate
	}
	hdr := flightHeader{
		Name:         f.Name,
		Mission:      f.Mission,
		Scenario:     f.Scenario,
		Telemetry:    f.Telemetry,
		AudioRate:    rate,
		AudioSamples: samples,
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("dataset: encode header: %w", err)
	}
	if _, err := bw.WriteString(audioMagic); err != nil {
		return err
	}
	if f.Audio != nil {
		ch := &f.Audio.Channels
		buf := make([]byte, audioBlock*frameBytes)
		for start := 0; start < samples; start += audioBlock {
			n := min(audioBlock, samples-start)
			for i := 0; i < n; i++ {
				for m := range ch {
					binary.LittleEndian.PutUint32(buf[(i*len(ch)+m)*4:], math.Float32bits(float32(ch[m][start+i])))
				}
			}
			if _, err := bw.Write(buf[:n*frameBytes]); err != nil {
				return fmt.Errorf("dataset: write audio: %w", err)
			}
		}
	}
	return bw.Flush()
}

// Load reads a flight written by Save.
func Load(r io.Reader) (*Flight, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	var hdr flightHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, fmt.Errorf("dataset: decode header: %w", err)
	}
	magic := make([]byte, len(audioMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dataset: read audio magic: %w", err)
	}
	if string(magic) != audioMagic {
		return nil, fmt.Errorf("dataset: bad audio magic %q", magic)
	}
	f := &Flight{
		Name:      hdr.Name,
		Mission:   hdr.Mission,
		Scenario:  hdr.Scenario,
		Telemetry: hdr.Telemetry,
	}
	if hdr.AudioSamples > 0 {
		rec := &acoustics.Recording{SampleRate: hdr.AudioRate}
		for m := range rec.Channels {
			rec.Channels[m] = make([]float64, hdr.AudioSamples)
		}
		// The payload converts straight out of the reader's buffer, as
		// many whole frames at a time as it holds.
		ch := &rec.Channels
		for start := 0; start < hdr.AudioSamples; {
			n := min(br.Size()/frameBytes, hdr.AudioSamples-start)
			buf, err := br.Peek(n * frameBytes)
			if err != nil {
				// Name the first sample cut short, with the error reading
				// its values one at a time would give.
				if err == io.EOF && len(buf)%4 != 0 {
					err = io.ErrUnexpectedEOF
				}
				return nil, fmt.Errorf("dataset: read audio sample %d: %w", start+len(buf)/frameBytes, err)
			}
			for i := 0; i < n; i++ {
				for m := range ch {
					ch[m][start+i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[(i*len(ch)+m)*4:])))
				}
			}
			br.Discard(len(buf))
			start += n
		}
		f.Audio = rec
	}
	return f, nil
}

// SaveFile writes the flight to path, creating parent directories.
func (f *Flight) SaveFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("dataset: mkdir: %w", err)
	}
	file, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: create: %w", err)
	}
	defer file.Close()
	if err := f.Save(file); err != nil {
		return err
	}
	return file.Close()
}

// LoadFile reads a flight from path.
func LoadFile(path string) (*Flight, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: open: %w", err)
	}
	defer file.Close()
	return Load(file)
}
