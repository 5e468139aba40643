package triage

import (
	"bytes"
	"encoding/json"
	"fmt"

	"soundboost/internal/dsp"
	"soundboost/internal/stats"
)

// SchemaVersion identifies the serialized triage model format. Bump it
// on any incompatible layout change; decode is strict in both
// directions (unknown fields rejected, version pinned).
const SchemaVersion = "triage/v1"

type bandFile struct {
	Name string  `json:"name"`
	Low  float64 `json:"low_hz"`
	High float64 `json:"high_hz"`
}

type configFile struct {
	Bands           []bandFile `json:"bands"`
	RolloffFraction float64    `json:"rolloff_fraction"`
	MaxPrototypes   int        `json:"max_prototypes"`
	KMin            int        `json:"k_min"`
	KMax            int        `json:"k_max"`
	BenignQuantile  float64    `json:"benign_quantile"`
	RadiusMargin    float64    `json:"radius_margin"`
	StrictFactor    float64    `json:"strict_factor"`
}

type modelFile struct {
	SchemaVersion string      `json:"schema_version"`
	Config        configFile  `json:"config"`
	Mean          []float64   `json:"mean"`
	Std           []float64   `json:"std"`
	Prototypes    [][]float64 `json:"prototypes"`
	Labels        []int       `json:"labels"`
	K             int         `json:"k"`
	VoteLimit     int         `json:"vote_limit"`
	BenignRadius  float64     `json:"benign_radius"`
	SNRFloorDB    float64     `json:"snr_floor_db"`
	SNRStrictDB   float64     `json:"snr_strict_db"`
}

// MarshalJSON serializes the trained model in the triage/v1 format.
func (m *Model) MarshalJSON() ([]byte, error) {
	f := modelFile{
		SchemaVersion: SchemaVersion,
		Config: configFile{
			RolloffFraction: m.cfg.Features.RolloffFraction,
			MaxPrototypes:   m.cfg.MaxPrototypes,
			KMin:            m.cfg.KMin,
			KMax:            m.cfg.KMax,
			BenignQuantile:  m.cfg.BenignQuantile,
			RadiusMargin:    m.cfg.RadiusMargin,
			StrictFactor:    m.cfg.StrictFactor,
		},
		Mean:         m.norm.Mean,
		Std:          m.norm.Std,
		Prototypes:   m.protos,
		Labels:       m.labels,
		K:            m.k,
		VoteLimit:    m.voteLimit,
		BenignRadius: m.benignRadius,
		SNRFloorDB:   m.snrFloorDB,
		SNRStrictDB:  m.snrStrictDB,
	}
	for _, b := range m.cfg.Features.Bands {
		f.Config.Bands = append(f.Config.Bands, bandFile{Name: b.Name, Low: b.Low, High: b.High})
	}
	return json.Marshal(f)
}

// UnmarshalJSON restores a model from the triage/v1 format. Decoding is
// strict: unknown fields, version mismatches, and inconsistent
// dimensions are all errors.
func (m *Model) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f modelFile
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("triage: decode model: %w", err)
	}
	if f.SchemaVersion != SchemaVersion {
		return fmt.Errorf("triage: schema version %q, want %q", f.SchemaVersion, SchemaVersion)
	}
	cfg := Config{
		Features: FeatureConfig{
			RolloffFraction: f.Config.RolloffFraction,
		},
		MaxPrototypes:  f.Config.MaxPrototypes,
		KMin:           f.Config.KMin,
		KMax:           f.Config.KMax,
		BenignQuantile: f.Config.BenignQuantile,
		RadiusMargin:   f.Config.RadiusMargin,
		StrictFactor:   f.Config.StrictFactor,
	}
	for _, b := range f.Config.Bands {
		cfg.Features.Bands = append(cfg.Features.Bands, dsp.Band{Name: b.Name, Low: b.Low, High: b.High})
	}
	dim := cfg.Features.Dim()
	if len(cfg.Features.Bands) == 0 {
		return fmt.Errorf("triage: model has no analysis bands")
	}
	if len(f.Mean) != dim || len(f.Std) != dim {
		return fmt.Errorf("triage: normalizer dims %d/%d, want %d", len(f.Mean), len(f.Std), dim)
	}
	if len(f.Prototypes) == 0 || len(f.Prototypes) != len(f.Labels) {
		return fmt.Errorf("triage: %d prototypes with %d labels", len(f.Prototypes), len(f.Labels))
	}
	for i, p := range f.Prototypes {
		if len(p) != dim {
			return fmt.Errorf("triage: prototype %d has dim %d, want %d", i, len(p), dim)
		}
		if f.Labels[i] != 0 && f.Labels[i] != 1 {
			return fmt.Errorf("triage: prototype %d has label %d", i, f.Labels[i])
		}
	}
	if f.K <= 0 || f.K > len(f.Prototypes) {
		return fmt.Errorf("triage: k=%d with %d prototypes", f.K, len(f.Prototypes))
	}
	if f.VoteLimit < 0 || f.VoteLimit >= f.K {
		return fmt.Errorf("triage: vote limit %d with k=%d", f.VoteLimit, f.K)
	}
	if f.BenignRadius <= 0 {
		return fmt.Errorf("triage: non-positive benign radius %g", f.BenignRadius)
	}
	m.cfg = cfg.withDefaults()
	m.norm = stats.ZScore{Mean: f.Mean, Std: f.Std}
	m.protos = f.Prototypes
	m.labels = f.Labels
	m.k = f.K
	m.voteLimit = f.VoteLimit
	m.benignRadius = f.BenignRadius
	m.snrFloorDB = f.SNRFloorDB
	m.snrStrictDB = f.SNRStrictDB
	return nil
}
