package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"soundboost/internal/acoustics"
	"soundboost/internal/attack"
	"soundboost/internal/dataset"
	"soundboost/internal/mathx"
)

// The corpus cache stores each flight in a flat little-endian layout
// that loads an order of magnitude faster than the .sbf codec (whose
// telemetry header is JSON). It holds the flight exactly as .sbf
// decoding produced it: audio values are float32 after that round trip,
// so float32 storage is lossless.

const cacheMagic = "SBBENCH1"

// telemetryFields is the float64 count of one telemetry row before its
// redundant-IMU readings.
const telemetryFields = 30

func writeCachedFlight(w io.Writer, f *dataset.Flight) error {
	bw := bufio.NewWriter(w)
	aux := 0
	if len(f.Telemetry) > 0 {
		aux = len(f.Telemetry[0].AuxIMUAccel)
	}
	var samples, rate float64
	if f.Audio != nil {
		samples, rate = float64(f.Audio.Samples()), f.Audio.SampleRate
	}
	head := []float64{float64(len(f.Telemetry)), float64(aux), samples, rate, f.Scenario.Window.Start, f.Scenario.Window.End}
	bw.WriteString(cacheMagic)
	for _, s := range []string{f.Name, f.Mission, f.Scenario.Kind} {
		binary.Write(bw, binary.LittleEndian, uint32(len(s)))
		bw.WriteString(s)
	}
	binary.Write(bw, binary.LittleEndian, head)
	row := make([]float64, 0, telemetryFields+3*aux)
	for _, s := range f.Telemetry {
		if len(s.AuxIMUAccel) != aux {
			return fmt.Errorf("bench: flight %s: ragged redundant-IMU rows", f.Name)
		}
		row = append(row[:0], s.Time,
			s.IMUAccel.X, s.IMUAccel.Y, s.IMUAccel.Z,
			s.IMUGyro.X, s.IMUGyro.Y, s.IMUGyro.Z,
			s.GPSPos.X, s.GPSPos.Y, s.GPSPos.Z,
			s.GPSVel.X, s.GPSVel.Y, s.GPSVel.Z,
			s.EstAtt.W, s.EstAtt.X, s.EstAtt.Y, s.EstAtt.Z,
			s.Motor[0], s.Motor[1], s.Motor[2], s.Motor[3],
			s.TruePos.X, s.TruePos.Y, s.TruePos.Z,
			s.TrueVel.X, s.TrueVel.Y, s.TrueVel.Z,
			s.TrueAccel.X, s.TrueAccel.Y, s.TrueAccel.Z)
		for _, a := range s.AuxIMUAccel {
			row = append(row, a.X, a.Y, a.Z)
		}
		binary.Write(bw, binary.LittleEndian, row)
	}
	if f.Audio != nil {
		buf := make([]float32, f.Audio.Samples())
		for _, ch := range f.Audio.Channels {
			for i, v := range ch {
				buf[i] = float32(v)
			}
			binary.Write(bw, binary.LittleEndian, buf)
		}
	}
	return bw.Flush()
}

func readCachedFlight(r io.Reader) (*dataset.Flight, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(cacheMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != cacheMagic {
		return nil, fmt.Errorf("bench: not a cached flight")
	}
	var strs [3]string
	for i := range strs {
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, err
		}
		strs[i] = string(b)
	}
	head := make([]float64, 6)
	if err := binary.Read(br, binary.LittleEndian, head); err != nil {
		return nil, err
	}
	nTel, aux, samples := int(head[0]), int(head[1]), int(head[2])
	f := &dataset.Flight{
		Name:     strs[0],
		Mission:  strs[1],
		Scenario: dataset.ScenarioMeta{Kind: strs[2], Window: attack.Window{Start: head[4], End: head[5]}},
	}
	if nTel > 0 {
		f.Telemetry = make([]dataset.TelemetrySample, nTel)
	}
	row := make([]float64, telemetryFields+3*aux)
	vec := func(v []float64) mathx.Vec3 { return mathx.Vec3{X: v[0], Y: v[1], Z: v[2]} }
	for i := range f.Telemetry {
		if err := binary.Read(br, binary.LittleEndian, row); err != nil {
			return nil, err
		}
		s := &f.Telemetry[i]
		s.Time = row[0]
		s.IMUAccel, s.IMUGyro = vec(row[1:]), vec(row[4:])
		s.GPSPos, s.GPSVel = vec(row[7:]), vec(row[10:])
		s.EstAtt = mathx.Quat{W: row[13], X: row[14], Y: row[15], Z: row[16]}
		copy(s.Motor[:], row[17:21])
		s.TruePos, s.TrueVel, s.TrueAccel = vec(row[21:]), vec(row[24:]), vec(row[27:])
		for k := 0; k < aux; k++ {
			s.AuxIMUAccel = append(s.AuxIMUAccel, vec(row[telemetryFields+3*k:]))
		}
	}
	if samples > 0 {
		rec := &acoustics.Recording{SampleRate: head[3]}
		buf := make([]float32, samples)
		for m := range rec.Channels {
			if err := binary.Read(br, binary.LittleEndian, buf); err != nil {
				return nil, err
			}
			ch := make([]float64, samples)
			for i, v := range buf {
				ch[i] = float64(v)
			}
			rec.Channels[m] = ch
		}
		f.Audio = rec
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("bench: trailing bytes after cached flight %s", f.Name)
	}
	return f, nil
}
