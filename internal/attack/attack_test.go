package attack

import (
	"math"
	"math/rand"
	"testing"

	"soundboost/internal/mathx"
	"soundboost/internal/sensors"
)

func TestWindow(t *testing.T) {
	w := Window{Start: 10, End: 20}
	tests := []struct {
		t    float64
		want bool
	}{
		{9.9, false}, {10, true}, {15, true}, {19.99, true}, {20, false},
	}
	for _, tt := range tests {
		if got := w.Contains(tt.t); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
	if w.Duration() != 10 {
		t.Errorf("Duration = %v", w.Duration())
	}
	if err := w.Validate(); err != nil {
		t.Errorf("valid window rejected: %v", err)
	}
	if err := (Window{Start: 5, End: 5}).Validate(); err == nil {
		t.Error("empty window accepted")
	}
}

func TestGPSSpooferStatic(t *testing.T) {
	sp := &GPSSpoofer{
		Window:        Window{Start: 10, End: 70},
		Mode:          GPSSpoofStatic,
		SpoofOffset:   mathx.Vec3{X: 10},
		ReportZeroVel: true,
	}
	// Before the window: passthrough.
	f := sp.InterceptGPS(sensors.GPSFix{Time: 5, Pos: mathx.Vec3{X: 1}, Vel: mathx.Vec3{X: 2}, Valid: true})
	if f.Pos.X != 1 || f.Vel.X != 2 {
		t.Errorf("pre-attack fix modified: %+v", f)
	}
	// At onset: counterfeit location = onset position + offset.
	f = sp.InterceptGPS(sensors.GPSFix{Time: 10, Pos: mathx.Vec3{X: 3}, Vel: mathx.Vec3{X: 2}, Valid: true})
	if f.Pos.X != 13 {
		t.Errorf("onset spoofed X = %v, want 13", f.Pos.X)
	}
	if f.Vel.Norm() != 0 {
		t.Errorf("spoofed velocity = %v, want zero", f.Vel)
	}
	// Later fixes keep reporting the same static location even as the true
	// position moves.
	f = sp.InterceptGPS(sensors.GPSFix{Time: 30, Pos: mathx.Vec3{X: 50}, Valid: true})
	if f.Pos.X != 13 {
		t.Errorf("static spoof moved: X = %v, want 13", f.Pos.X)
	}
	// After the window: passthrough again, onset state reset.
	f = sp.InterceptGPS(sensors.GPSFix{Time: 80, Pos: mathx.Vec3{X: 7}, Valid: true})
	if f.Pos.X != 7 {
		t.Errorf("post-attack fix modified: %v", f.Pos.X)
	}
	if sp.Active(30) != true || sp.Active(80) != false {
		t.Error("Active() wrong")
	}
}

func TestGPSSpooferDrift(t *testing.T) {
	sp := &GPSSpoofer{
		Window:      Window{Start: 0, End: 10},
		Mode:        GPSSpoofDrift,
		SpoofOffset: mathx.Vec3{Y: 20},
	}
	f := sp.InterceptGPS(sensors.GPSFix{Time: 5, Pos: mathx.Vec3{}, Valid: true})
	if math.Abs(f.Pos.Y-10) > 1e-9 {
		t.Errorf("mid-drift Y = %v, want 10", f.Pos.Y)
	}
	if math.Abs(f.Vel.Y-2) > 1e-9 {
		t.Errorf("drift velocity Y = %v, want 2", f.Vel.Y)
	}
}

func TestIMUBiaserSideSwing(t *testing.T) {
	b := &IMUBiaser{
		Window:      Window{Start: 10, End: 20},
		Mode:        IMUSideSwing,
		Axis:        mathx.Vec3{Z: 1},
		Magnitude:   0.5,
		RampSeconds: 5,
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// Pre-attack: passthrough.
	m := b.InterceptIMU(sensors.IMUMeasurement{Time: 5, Gyro: mathx.Vec3{Z: 0.1}})
	if m.Gyro.Z != 0.1 {
		t.Errorf("pre-attack gyro modified: %v", m.Gyro.Z)
	}
	// Mid-ramp: half magnitude.
	m = b.InterceptIMU(sensors.IMUMeasurement{Time: 12.5, Gyro: mathx.Vec3{}})
	if math.Abs(m.Gyro.Z-0.25) > 1e-9 {
		t.Errorf("mid-ramp bias = %v, want 0.25", m.Gyro.Z)
	}
	// Past ramp: full magnitude.
	m = b.InterceptIMU(sensors.IMUMeasurement{Time: 18, Gyro: mathx.Vec3{}})
	if math.Abs(m.Gyro.Z-0.5) > 1e-9 {
		t.Errorf("post-ramp bias = %v, want 0.5", m.Gyro.Z)
	}
	// Accel untouched by side-swing.
	m = b.InterceptIMU(sensors.IMUMeasurement{Time: 18, Accel: mathx.Vec3{X: 1}})
	if m.Accel.X != 1 {
		t.Error("side-swing modified accelerometer")
	}
}

func TestIMUBiaserDoS(t *testing.T) {
	b := &IMUBiaser{
		Window:    Window{Start: 0, End: 10},
		Mode:      IMUAccelDoS,
		Axis:      mathx.Vec3{Z: 1},
		Magnitude: 2,
		Rng:       rand.New(rand.NewSource(1)),
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	var sum, sumSq float64
	const n = 5000
	for i := 0; i < n; i++ {
		m := b.InterceptIMU(sensors.IMUMeasurement{Time: 5, Accel: mathx.Vec3{}})
		sum += m.Accel.Z
		sumSq += m.Accel.Z * m.Accel.Z
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	// DoS noise is oscillatory: near-zero mean, large spread.
	if math.Abs(mean) > 0.2 {
		t.Errorf("DoS mean %v, want ~0", mean)
	}
	if std < 1 {
		t.Errorf("DoS std %v, want ~2", std)
	}
	// Gyro untouched by DoS.
	m := b.InterceptIMU(sensors.IMUMeasurement{Time: 5, Gyro: mathx.Vec3{X: 0.3}})
	if m.Gyro.X != 0.3 {
		t.Error("DoS modified gyroscope")
	}
}

func TestIMUBiaserValidate(t *testing.T) {
	tests := []struct {
		name string
		b    IMUBiaser
	}{
		{"bad window", IMUBiaser{Window: Window{1, 1}, Mode: IMUSideSwing, Axis: mathx.Vec3{Z: 1}, Magnitude: 1}},
		{"zero axis", IMUBiaser{Window: Window{0, 1}, Mode: IMUSideSwing, Magnitude: 1}},
		{"zero magnitude", IMUBiaser{Window: Window{0, 1}, Mode: IMUSideSwing, Axis: mathx.Vec3{Z: 1}}},
		{"dos without rng", IMUBiaser{Window: Window{0, 1}, Mode: IMUAccelDoS, Axis: mathx.Vec3{Z: 1}, Magnitude: 1}},
		{"unknown mode", IMUBiaser{Window: Window{0, 1}, Mode: "bogus", Axis: mathx.Vec3{Z: 1}, Magnitude: 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.b.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestScenario(t *testing.T) {
	if (Scenario{}).HasAttack() {
		t.Error("benign scenario has attack")
	}
	s := Scenario{
		GPS: &GPSSpoofer{Window: Window{Start: 30, End: 90}},
	}
	if !s.HasAttack() {
		t.Error("GPS scenario reports no attack")
	}
	if w := s.AttackWindow(); w.Start != 30 {
		t.Errorf("AttackWindow = %+v", w)
	}
	both := Scenario{
		GPS: &GPSSpoofer{Window: Window{Start: 30, End: 90}},
		IMU: &IMUBiaser{Window: Window{Start: 10, End: 20}},
	}
	if w := both.AttackWindow(); w.Start != 10 {
		t.Errorf("earliest AttackWindow = %+v", w)
	}
	if w := (Scenario{}).AttackWindow(); w != (Window{}) {
		t.Errorf("benign AttackWindow = %+v", w)
	}
}

func TestActuatorDoS(t *testing.T) {
	a := &ActuatorDoS{
		Window:        Window{Start: 10, End: 20},
		PeriodSeconds: 1.0,
		DutyOff:       0.5,
		IdleSpeed:     120,
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	cmd := [4]float64{700, 700, 700, 700}
	// Outside the window: passthrough.
	if got := a.InterceptMotors(5, cmd); got != cmd {
		t.Errorf("pre-attack commands modified: %v", got)
	}
	// Off phase (first half of each period): forced idle.
	got := a.InterceptMotors(10.2, cmd)
	for i, v := range got {
		if v != 120 {
			t.Errorf("motor %d = %v during off phase, want 120", i, v)
		}
	}
	// On phase: passthrough.
	if got := a.InterceptMotors(10.7, cmd); got != cmd {
		t.Errorf("on-phase commands modified: %v", got)
	}
	if !a.Active(15) || a.Active(25) {
		t.Error("Active() wrong")
	}
}

func TestActuatorDoSSelectedMotors(t *testing.T) {
	a := &ActuatorDoS{
		Window:        Window{Start: 0, End: 10},
		PeriodSeconds: 1,
		DutyOff:       0.9,
		Motors:        []int{0, 2},
		IdleSpeed:     100,
	}
	cmd := [4]float64{700, 700, 700, 700}
	got := a.InterceptMotors(0.1, cmd)
	if got[0] != 100 || got[2] != 100 {
		t.Errorf("targeted motors not idled: %v", got)
	}
	if got[1] != 700 || got[3] != 700 {
		t.Errorf("untargeted motors modified: %v", got)
	}
}

func TestActuatorDoSValidate(t *testing.T) {
	bad := []*ActuatorDoS{
		{Window: Window{1, 1}, PeriodSeconds: 1, DutyOff: 0.5},
		{Window: Window{0, 1}, PeriodSeconds: 0, DutyOff: 0.5},
		{Window: Window{0, 1}, PeriodSeconds: 1, DutyOff: 0},
		{Window: Window{0, 1}, PeriodSeconds: 1, DutyOff: 1},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestScenarioActuator(t *testing.T) {
	s := Scenario{Actuator: &ActuatorDoS{Window: Window{Start: 3, End: 9}, PeriodSeconds: 1, DutyOff: 0.5}}
	if !s.HasAttack() {
		t.Error("actuator scenario reports no attack")
	}
	if w := s.AttackWindow(); w.Start != 3 {
		t.Errorf("AttackWindow = %+v", w)
	}
}

func TestNewFamily(t *testing.T) {
	w := Window{Start: 6, End: 14}
	for _, name := range Families {
		s, err := NewFamily(name, w, 7, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.AttackWindow() != w {
			t.Errorf("%s: window %+v, want %+v", name, s.AttackWindow(), w)
		}
		if s.IMU != nil {
			if err := s.IMU.Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	s, _ := NewFamily(FamilyGPSDrift, w, 7, 0.5)
	if s.GPS.SpoofOffset != (mathx.Vec3{X: 12}) {
		t.Errorf("gps-drift at intensity 0.5: offset %v, want 12 m north", s.GPS.SpoofOffset)
	}
	if _, err := NewFamily("gps-teleport", w, 7, 1); err == nil {
		t.Error("unknown family accepted")
	}
}
