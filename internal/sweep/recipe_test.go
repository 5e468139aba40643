package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"soundboost/internal/dataset"
	"soundboost/internal/experiments"
	"soundboost/internal/mathx"
	"soundboost/internal/sim"
)

// TestRecipeGolden pins the saved bytes of the flights every generator
// builds: the sweep's fast-preset cells for each attack family, the
// quick-scale Tab. II periods and §IV-B flights the benchmark corpus is
// made of, and one plain reduced-rate hover. A change to the preset, an
// attack family's size or the wind rotation moves a hash here.
func TestRecipeGolden(t *testing.T) {
	c := &Config{Preset: PresetFast, Seconds: 16, Seed: 42}
	qs := experiments.QuickScale()
	periods := qs.GPSPeriods()
	imu := qs.IMUFlights()
	benign, drift := periods[0], periods[qs.GPSBenign]
	swing, dos, lowBatt := imu[qs.IMUBenign], imu[qs.IMUBenign+1], imu[qs.IMUBenign-1]
	if !drift.Attack || swing.Mode == dos.Mode || !lowBatt.LowBattery {
		t.Fatalf("unexpected quick-scale spec order")
	}

	type gen func() (*dataset.Flight, error)
	type recipe struct {
		name string
		gen  gen
	}
	var cases []recipe
	add := func(name string, g gen) { cases = append(cases, recipe{name, g}) }
	for _, intensity := range []float64{1, 0.5} {
		for _, family := range []string{"benign", "gps-static", "gps-drift", "imu-side-swing", "imu-dos"} {
			key := flightKey{attack: family, intensity: intensity}
			idx := len(cases)
			add(fmt.Sprintf("sweep/%s-i%g", family, intensity), func() (*dataset.Flight, error) { return c.buildFlight(key, idx) })
		}
	}
	add("quick/gps-benign-0", func() (*dataset.Flight, error) { return qs.GeneratePeriod(benign) })
	add("quick/gps-attack-0", func() (*dataset.Flight, error) { return qs.GeneratePeriod(drift) })
	add("quick/imu-side-swing", func() (*dataset.Flight, error) { return qs.GenerateIMUFlight(swing) })
	add("quick/imu-accel-dos", func() (*dataset.Flight, error) { return qs.GenerateIMUFlight(dos) })
	add("quick/imu-lowbatt", func() (*dataset.Flight, error) { return qs.GenerateIMUFlight(lowBatt) })
	add("fast/hover-16s-seed7", func() (*dataset.Flight, error) {
		return dataset.Generate(dataset.FastGenConfig(sim.HoverMission{Point: mathx.Vec3{Z: -10}, Seconds: 16}, 7))
	})

	want := map[string]string{
		"sweep/benign-i1":           "df6ce14afa771e4976ae7a789d0aa7ce50099ffb34efc2affeda3760af497f8d",
		"sweep/gps-static-i1":       "df3754524555dda70d4d62cf5f3e455cc92c9a2de13383f63c884b79a3963cb0",
		"sweep/gps-drift-i1":        "889f731c54387404724f7a4745e6a0d3528df0caecd3aff097e458557a1a7c0b",
		"sweep/imu-side-swing-i1":   "0c8a5ccb8d0e2397b9b2cddb8d17481b0ca9ccaa3d1ae3105c7383bff70432e5",
		"sweep/imu-dos-i1":          "ca92abb8e0a8b69d0130e57cc06a565516fc5a8d0bf59489704c0875f07922bd",
		"sweep/benign-i0.5":         "41076f4151dead89b5db533457a1ff41d088d46862b28a456c19bf9fbb6b38f0",
		"sweep/gps-static-i0.5":     "487b77123375370591a3594f1cf2b71c9abac5b679bb9651f9416e723b283b82",
		"sweep/gps-drift-i0.5":      "93542ad9b4ed29ee3714fb4c9d3ea8d2f9ca744f98749c8763745579b0442a13",
		"sweep/imu-side-swing-i0.5": "7ee9bd02e30d018bcd82bdae0dc47a1ac836781a4b1d4f2116dc75894e11c325",
		"sweep/imu-dos-i0.5":        "2a4926abf1ba1616675be05551462ae4ef6a3dc96048846cb97305cb75313205",
		"quick/gps-benign-0":        "e29bc54f44a11069a0f019b96e3125125bed1671260a049c7adae8bd572644b7",
		"quick/gps-attack-0":        "fd64131c6608752d926af4157a058dd8783b1623598f361d9918b39dc3ee03d6",
		"quick/imu-side-swing":      "84e6244fa37a7e4fc82c9f0ed0a57376bcc00cf46fa58e31317638a8f4fd86e0",
		"quick/imu-accel-dos":       "26698836a00dcdfbaa63d54f1624b23e9a8c4857ff0354cfd06b2d52a248157f",
		"quick/imu-lowbatt":         "2c9a2e0c5680eaba1539953e6ba99e84abab25248320f5dfc7572d860917c315",
		"fast/hover-16s-seed7":      "40d4688da294c444e6ffb3a717c7431ea7fbcf75b24c7c18c2bd1b26d7117e7f",
	}
	for _, tc := range cases {
		f, err := tc.gen()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			t.Fatalf("%s: save: %v", tc.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[tc.name] {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, want[tc.name])
		}
	}
}
