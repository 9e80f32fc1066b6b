package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGridConstants(t *testing.T) {
	if GridSize != 36 {
		t.Fatalf("GridSize %d, want 36 (180 km / 5 km)", GridSize)
	}
}

func TestCellOfCenterRoundTrip(t *testing.T) {
	for cx := 0; cx < GridSize; cx += 5 {
		for cy := 0; cy < GridSize; cy += 5 {
			c := Cell{CX: cx, CY: cy}
			if got := CellOf(c.Center()); got != c {
				t.Fatalf("CellOf(Center(%v)) = %v", c, got)
			}
		}
	}
}

// Property: any in-region point maps to an in-region cell whose center is
// within half a cell diagonal.
func TestCellOfProperty(t *testing.T) {
	f := func(xr, yr float64) bool {
		x := math.Mod(math.Abs(xr), RegionKm) - RegionKm/2
		y := math.Mod(math.Abs(yr), RegionKm) - RegionKm/2
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		p := Point{X: x, Y: y}
		c := CellOf(p)
		if !c.InRegion() {
			return false
		}
		d := p.DistanceKm(c.Center())
		return d <= CellKm*math.Sqrt2/2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTokyoIsCenterCell(t *testing.T) {
	c := CellOf(Point{})
	if c.CX != GridSize/2 || c.CY != GridSize/2 {
		t.Fatalf("Tokyo cell %v", c)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ in, want Cell }{
		{Cell{-3, 5}, Cell{0, 5}},
		{Cell{5, -3}, Cell{5, 0}},
		{Cell{99, 99}, Cell{GridSize - 1, GridSize - 1}},
		{Cell{10, 10}, Cell{10, 10}},
	}
	for _, c := range cases {
		if got := c.in.Clamp(); got != c.want {
			t.Errorf("Clamp(%v) = %v want %v", c.in, got, c.want)
		}
	}
}

func TestAnchorsInRegion(t *testing.T) {
	for _, a := range Anchors {
		if !CellOf(a.Pos).InRegion() {
			t.Errorf("anchor %s at %v is outside the region", a.Name, a.Pos)
		}
		if a.Weight <= 0 {
			t.Errorf("anchor %s has non-positive weight", a.Name)
		}
	}
}

func TestTotalAnchorWeight(t *testing.T) {
	var got float64
	for _, a := range Anchors {
		got += a.Weight
	}
	if math.Abs(got-1.0) > 0.01 {
		t.Fatalf("anchor weights sum to %g, want ~1", got)
	}
}

func TestDistanceKm(t *testing.T) {
	d := Point{X: 3, Y: 0}.DistanceKm(Point{X: 0, Y: 4})
	if math.Abs(d-5) > 1e-12 {
		t.Fatalf("distance %g", d)
	}
}

func TestCellString(t *testing.T) {
	if got := (Cell{CX: 2, CY: 7}).String(); got != "(2,7)" {
		t.Fatalf("String %q", got)
	}
}
