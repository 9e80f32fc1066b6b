package stats

import (
	"testing"
	"testing/quick"
)

func TestSeries(t *testing.T) {
	s := NewSeries(4)
	if s.Len() != 4 {
		t.Fatalf("len %d", s.Len())
	}
	s.Add(0, 2)
	s.Add(0, 4)
	s.Add(3, 9)
	if s.Sum[0] != 6 || s.Sum[1] != 0 || s.Sum[3] != 9 {
		t.Fatalf("sums %v", s.Sum)
	}
	if s.Count[0] != 2 || s.Count[1] != 0 || s.Count[3] != 1 {
		t.Fatalf("counts %v", s.Count)
	}
}

func TestNewSeriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	NewSeries(0)
}

func TestRatio(t *testing.T) {
	got, err := Ratio([]float64{1, 2, 3}, []float64{2, 0, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0.5 || got[1] != 0 || got[2] != 0.5 {
		t.Fatalf("ratio %v", got)
	}
	if _, err := Ratio([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestGrid(t *testing.T) {
	g := NewGrid(3, 2)
	g.Add(0, 0)
	g.Add(0, 0)
	g.Add(2, 1)
	g.Add(-1, 0) // ignored
	g.Add(3, 0)  // ignored
	g.Add(0, 2)  // ignored
	if g.At(0, 0) != 2 || g.At(2, 1) != 1 || g.At(1, 1) != 0 {
		t.Fatalf("grid counts wrong")
	}
	if g.At(-1, 0) != 0 || g.At(0, 5) != 0 {
		t.Fatal("out-of-range At should be 0")
	}
	if g.Max() != 2 {
		t.Fatalf("max %d", g.Max())
	}
	if g.CellsAtLeast(1) != 2 || g.CellsAtLeast(2) != 1 || g.CellsAtLeast(3) != 0 {
		t.Fatal("CellsAtLeast wrong")
	}
}

func TestNewGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGrid(0, 5)
}

// Property: out-of-range adds never change totals; in-range adds always do.
func TestGridAddProperty(t *testing.T) {
	f := func(coords [][2]int8) bool {
		g := NewGrid(8, 8)
		want := 0
		for _, c := range coords {
			x, y := int(c[0]), int(c[1])
			g.Add(x, y)
			if x >= 0 && x < 8 && y >= 0 && y < 8 {
				want++
			}
		}
		total := 0
		for _, c := range g.Counts {
			total += c
		}
		return total == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
