// Package mathx provides the small linear-algebra toolkit used across the
// SoundBoost reproduction: 3-vectors, 3x3 matrices, quaternions, and dense
// NxN matrix routines (inversion, Cholesky, least squares) required by the
// Kalman filters and the LTI system-identification baseline.
//
// Everything is stdlib-only and allocation-conscious: the hot paths used by
// the flight simulator (Vec3, Mat3, Quat) are value types.
package mathx

import (
	"fmt"
	"math"
)

// Vec3 is a 3-dimensional vector. The coordinate convention throughout the
// repository is North-East-Down (NED), matching the paper's Kalman filter
// formulation ("North-East-Down transformed acceleration").
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		X: v.Y*w.Z - v.Z*w.Y,
		Y: v.Z*w.X - v.X*w.Z,
		Z: v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// NormSq returns the squared Euclidean length of v.
func (v Vec3) NormSq() float64 { return v.Dot(v) }

// Normalized returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Normalized() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Hadamard returns the element-wise product of v and w.
func (v Vec3) Hadamard(w Vec3) Vec3 { return Vec3{v.X * w.X, v.Y * w.Y, v.Z * w.Z} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Clamp returns v with each component clamped to [lo, hi].
func (v Vec3) Clamp(lo, hi float64) Vec3 {
	return Vec3{clamp(v.X, lo, hi), clamp(v.Y, lo, hi), clamp(v.Z, lo, hi)}
}

// IsFinite reports whether every component is finite (not NaN or Inf).
func (v Vec3) IsFinite() bool {
	return isFinite(v.X) && isFinite(v.Y) && isFinite(v.Z)
}

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Lerp returns the linear interpolation between v and w at parameter t,
// where t=0 yields v and t=1 yields w.
func (v Vec3) Lerp(w Vec3, t float64) Vec3 { return v.Add(w.Sub(v).Scale(t)) }

// String implements fmt.Stringer.
func (v Vec3) String() string { return fmt.Sprintf("(%.4g, %.4g, %.4g)", v.X, v.Y, v.Z) }

// Slice returns the components as a fresh []float64{X, Y, Z}.
func (v Vec3) Slice() []float64 { return []float64{v.X, v.Y, v.Z} }

// Vec3FromSlice builds a Vec3 from the first three elements of s.
// It panics if len(s) < 3; callers own length validation at boundaries.
func Vec3FromSlice(s []float64) Vec3 {
	return Vec3{X: s[0], Y: s[1], Z: s[2]}
}

func clamp(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	default:
		return x
	}
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Clamp returns x clamped to [lo, hi].
func Clamp(x, lo, hi float64) float64 { return clamp(x, lo, hi) }

// Mat3 is a 3x3 matrix in row-major order.
type Mat3 [3][3]float64

// Identity3 returns the 3x3 identity matrix.
func Identity3() Mat3 {
	return Mat3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
}

// MulVec returns m*v.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		X: m[0][0]*v.X + m[0][1]*v.Y + m[0][2]*v.Z,
		Y: m[1][0]*v.X + m[1][1]*v.Y + m[1][2]*v.Z,
		Z: m[2][0]*v.X + m[2][1]*v.Y + m[2][2]*v.Z,
	}
}

// Mul returns the matrix product m*n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += m[i][k] * n[k][j]
			}
			out[i][j] = s
		}
	}
	return out
}

// Transpose returns the transpose of m.
func (m Mat3) Transpose() Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out[i][j] = m[j][i]
		}
	}
	return out
}

// Scale returns s*m.
func (m Mat3) Scale(s float64) Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out[i][j] = s * m[i][j]
		}
	}
	return out
}

// Add returns m+n.
func (m Mat3) Add(n Mat3) Mat3 {
	var out Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			out[i][j] = m[i][j] + n[i][j]
		}
	}
	return out
}

// Det returns the determinant of m.
func (m Mat3) Det() float64 {
	return m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
}

// Inverse returns the inverse of m. ok is false when m is singular
// (|det| below 1e-12), in which case the returned matrix is unspecified.
func (m Mat3) Inverse() (inv Mat3, ok bool) {
	d := m.Det()
	if math.Abs(d) < 1e-12 {
		return Mat3{}, false
	}
	id := 1 / d
	inv[0][0] = (m[1][1]*m[2][2] - m[1][2]*m[2][1]) * id
	inv[0][1] = (m[0][2]*m[2][1] - m[0][1]*m[2][2]) * id
	inv[0][2] = (m[0][1]*m[1][2] - m[0][2]*m[1][1]) * id
	inv[1][0] = (m[1][2]*m[2][0] - m[1][0]*m[2][2]) * id
	inv[1][1] = (m[0][0]*m[2][2] - m[0][2]*m[2][0]) * id
	inv[1][2] = (m[0][2]*m[1][0] - m[0][0]*m[1][2]) * id
	inv[2][0] = (m[1][0]*m[2][1] - m[1][1]*m[2][0]) * id
	inv[2][1] = (m[0][1]*m[2][0] - m[0][0]*m[2][1]) * id
	inv[2][2] = (m[0][0]*m[1][1] - m[0][1]*m[1][0]) * id
	return inv, true
}

// Diag3 returns a diagonal matrix with the given entries.
func Diag3(a, b, c float64) Mat3 {
	return Mat3{{a, 0, 0}, {0, b, 0}, {0, 0, c}}
}
