package mobility

import (
	"math"
	"math/rand"
	"testing"

	"smartusage/internal/population"
	"smartusage/internal/wifi"
)

func testUsers(t *testing.T) *population.Panel {
	t.Helper()
	params, err := population.ParamsForYear(2015, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	dep, err := wifi.DeployParamsForYear(2015, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	d := wifi.NewDeployment(dep, rng)
	p, err := population.NewPanel(params, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func findUser(p *population.Panel, pred func(*population.User) bool) *population.User {
	for i := range p.Users {
		if pred(&p.Users[i]) {
			return &p.Users[i]
		}
	}
	return nil
}

func TestActivityNormalized(t *testing.T) {
	p := testUsers(t)
	rng := rand.New(rand.NewSource(1))
	var s Schedule
	for i := range p.Users[:50] {
		for _, weekday := range []bool{true, false} {
			s.Fill(&p.Users[i], weekday, rng)
			var sum float64
			for _, a := range s.Activity {
				if a < 0 {
					t.Fatal("negative activity")
				}
				sum += a
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("activity sums to %g", sum)
			}
		}
	}
}

// Fill writes every bin: refilling a schedule that holds another day gives
// the same day as filling a fresh one, so the simulator can reuse one
// Schedule per user.
func TestFillOverwritesEveryBin(t *testing.T) {
	p := testUsers(t)
	var reused Schedule
	for i := range p.Users[:50] {
		for _, weekday := range []bool{true, false} {
			var fresh Schedule
			fresh.Fill(&p.Users[i], weekday, rand.New(rand.NewSource(int64(i))))
			reused.Fill(&p.Users[i], weekday, rand.New(rand.NewSource(int64(i))))
			if reused != fresh {
				t.Fatalf("user %d weekday=%v: refilled schedule differs from a fresh one", i, weekday)
			}
		}
	}
}

func TestCommuterDayStructure(t *testing.T) {
	p := testUsers(t)
	u := findUser(p, func(u *population.User) bool {
		return u.Occupation.Commutes() && u.Office != nil
	})
	if u == nil {
		t.Fatal("no commuter in panel")
	}
	rng := rand.New(rand.NewSource(2))
	officeBins, homeNight := 0, 0
	const days = 50
	var s Schedule
	for d := 0; d < days; d++ {
		s.Fill(u, true, rng)
		// 10:30 should be office time.
		if s.Place[binOfClock(10, 30)] == PlaceOffice {
			officeBins++
		}
		// 03:00 must be home.
		if s.Place[binOfClock(3, 0)] == PlaceHome {
			homeNight++
		}
		// Position at office bins must be the office.
		for b := 0; b < BinsPerDay; b++ {
			if s.Place[b] == PlaceOffice && s.Pos[b] != u.Office.Pos {
				t.Fatal("office bin not at office position")
			}
		}
	}
	if officeBins < days*8/10 {
		t.Fatalf("commuter at office 10:30 on only %d/%d weekdays", officeBins, days)
	}
	if homeNight != days {
		t.Fatalf("commuter home at 3am on %d/%d days", homeNight, days)
	}
}

func TestWeekendMostlyHome(t *testing.T) {
	p := testUsers(t)
	u := findUser(p, func(u *population.User) bool { return u.Occupation.Commutes() })
	rng := rand.New(rand.NewSource(3))
	office := 0
	var s Schedule
	for d := 0; d < 30; d++ {
		s.Fill(u, false, rng)
		for b := 0; b < BinsPerDay; b++ {
			if s.Place[b] == PlaceOffice {
				office++
			}
		}
	}
	if office != 0 {
		t.Fatalf("weekend office bins: %d", office)
	}
}

func TestLunchGeneratesPublicBins(t *testing.T) {
	p := testUsers(t)
	u := findUser(p, func(u *population.User) bool {
		return u.Occupation.Commutes() && u.Office != nil
	})
	rng := rand.New(rand.NewSource(4))
	lunchPublic := 0
	const days = 50
	var s Schedule
	for d := 0; d < days; d++ {
		s.Fill(u, true, rng)
		for b := binOfClock(12, 0); b <= binOfClock(13, 30); b++ {
			if s.Place[b] == PlacePublic {
				lunchPublic++
				break
			}
		}
	}
	if lunchPublic < days/2 {
		t.Fatalf("lunch at public venue on only %d/%d days", lunchPublic, days)
	}
}

func TestTransitHasHighActivityWeight(t *testing.T) {
	if placeActivity[PlaceTransit] <= placeActivity[PlaceOffice] {
		t.Fatal("train phone usage should outweigh office usage")
	}
}

func TestEveningActivityDominates(t *testing.T) {
	// The diurnal curve must peak in the evening and trough at night —
	// the precondition for Fig. 2's shapes.
	var nightMax, eveningMin float64 = 0, math.Inf(1)
	for h := 2; h <= 5; h++ {
		if hourActivity[h] > nightMax {
			nightMax = hourActivity[h]
		}
	}
	for h := 19; h <= 23; h++ {
		if hourActivity[h] < eveningMin {
			eveningMin = hourActivity[h]
		}
	}
	if eveningMin <= nightMax*2 {
		t.Fatalf("evening activity %.2f not well above night %.2f", eveningMin, nightMax)
	}
}

func TestBinOfClock(t *testing.T) {
	cases := []struct {
		h, m, want int
	}{
		{0, 0, 0}, {0, 10, 1}, {1, 0, 6}, {23, 50, 143}, {12, 34, 75},
		{-1, 0, 0}, {25, 0, 143},
	}
	for _, c := range cases {
		if got := binOfClock(c.h, c.m); got != c.want {
			t.Errorf("binOfClock(%d,%d)=%d want %d", c.h, c.m, got, c.want)
		}
	}
}

func TestPlaceString(t *testing.T) {
	names := map[Place]string{
		PlaceHome: "home", PlaceOffice: "office", PlaceTransit: "transit",
		PlacePublic: "public", PlaceOther: "other",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String()=%q", p, p.String())
		}
	}
}

func TestHousewifeDay(t *testing.T) {
	p := testUsers(t)
	u := findUser(p, func(u *population.User) bool {
		return u.Occupation == population.OccHousewife
	})
	if u == nil {
		t.Skip("no housewife in panel sample")
	}
	rng := rand.New(rand.NewSource(6))
	home, outings := 0, 0
	var s Schedule
	for d := 0; d < 30; d++ {
		s.Fill(u, true, rng)
		dayOut := false
		for b := 0; b < BinsPerDay; b++ {
			switch s.Place[b] {
			case PlaceHome:
				home++
			case PlacePublic:
				dayOut = true
			}
		}
		if dayOut {
			outings++
		}
	}
	if float64(home)/(30*BinsPerDay) < 0.6 {
		t.Fatal("housewife should spend most bins at home")
	}
	if outings == 0 {
		t.Fatal("no outings in 30 days")
	}
}
