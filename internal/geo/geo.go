// Package geo models the Greater Tokyo area as a planar grid of 5 km square
// cells, the same spatial resolution the measurement software reported
// ("coarse geolocation (5km precision)", §2 of the paper) and the cell size
// of the AP density maps (Fig. 10).
//
// Coordinates are kilometres on a local tangent plane centred on Tokyo
// Station; north is +Y and east is +X. The modelled region spans RegionKm in
// each axis, giving a GridSize x GridSize cell grid that comfortably covers
// the anchors named in Fig. 10 (Yokohama, Chiba, Narita, Saitama, Kawasaki,
// Hachioji, Funabashi, Odawara, Yokosuka).
package geo

import (
	"fmt"
	"math"
)

const (
	// CellKm is the edge length of one grid cell in kilometres.
	CellKm = 5.0
	// RegionKm is the edge length of the modelled square region. 180 km
	// spans Odawara (~70 km southwest of Tokyo) through Narita (~60 km
	// east) with margin.
	RegionKm = 180.0
	// GridSize is the number of cells along one axis.
	GridSize = int(RegionKm / CellKm) // 36
)

// Point is a position in km relative to Tokyo Station (east = +X,
// north = +Y).
type Point struct {
	X float64
	Y float64
}

// DistanceKm returns the Euclidean distance between two points.
func (p Point) DistanceKm(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Cell identifies one 5 km grid cell by column (CX) and row (CY); cell
// (0, 0) is the southwest corner of the region.
type Cell struct {
	CX int
	CY int
}

// String renders the cell as "(cx,cy)".
func (c Cell) String() string { return fmt.Sprintf("(%d,%d)", c.CX, c.CY) }

// InRegion reports whether the cell lies inside the modelled grid.
func (c Cell) InRegion() bool {
	return c.CX >= 0 && c.CX < GridSize && c.CY >= 0 && c.CY < GridSize
}

// Center returns the midpoint of the cell.
func (c Cell) Center() Point {
	return Point{
		X: (float64(c.CX)+0.5)*CellKm - RegionKm/2,
		Y: (float64(c.CY)+0.5)*CellKm - RegionKm/2,
	}
}

// CellOf maps a point to its containing cell. Points outside the region map
// to out-of-range cells; use Cell.InRegion to filter.
func CellOf(p Point) Cell {
	return Cell{
		CX: int(math.Floor((p.X + RegionKm/2) / CellKm)),
		CY: int(math.Floor((p.Y + RegionKm/2) / CellKm)),
	}
}

// Clamp returns the nearest in-region cell.
func (c Cell) Clamp() Cell {
	out := c
	if out.CX < 0 {
		out.CX = 0
	}
	if out.CX >= GridSize {
		out.CX = GridSize - 1
	}
	if out.CY < 0 {
		out.CY = 0
	}
	if out.CY >= GridSize {
		out.CY = GridSize - 1
	}
	return out
}

// Anchor is a named population centre used to seed homes, offices, and
// public-AP deployment.
type Anchor struct {
	Name string
	Pos  Point
	// Weight is the relative share of population activity the anchor
	// attracts; weights are normalised by callers.
	Weight float64
}

// Anchors lists the named places of Fig. 10 with approximate offsets from
// Tokyo Station (km, east/north positive) and relative activity weights.
// Tokyo itself carries the dominant weight, matching the strong downtown
// densities the paper observes (Shinjuku/Shibuya cells).
var Anchors = []Anchor{
	{Name: "Tokyo", Pos: Point{X: 0, Y: 0}, Weight: 0.34},
	{Name: "Yokohama", Pos: Point{X: -12, Y: -25}, Weight: 0.13},
	{Name: "Kawasaki", Pos: Point{X: -8, Y: -14}, Weight: 0.09},
	{Name: "Saitama", Pos: Point{X: -5, Y: 24}, Weight: 0.09},
	{Name: "Chiba", Pos: Point{X: 32, Y: -6}, Weight: 0.08},
	{Name: "Funabashi", Pos: Point{X: 20, Y: 0}, Weight: 0.07},
	{Name: "Hachioji", Pos: Point{X: -38, Y: 4}, Weight: 0.07},
	{Name: "Narita", Pos: Point{X: 58, Y: 8}, Weight: 0.05},
	{Name: "Yokosuka", Pos: Point{X: -8, Y: -42}, Weight: 0.04},
	{Name: "Odawara", Pos: Point{X: -52, Y: -48}, Weight: 0.04},
}
