package analysis

import (
	"math"
	"testing"
	"time"

	"smartusage/internal/trace"
)

// updateFixture builds a 2015-style trace: release on day 2 at 09:00; four
// iOS devices with different update behaviours and one Android bystander.
func updateFixture(t *testing.T) (*tb, time.Time) {
	t.Helper()
	meta := testMeta(14)
	b := &tb{meta: meta}
	release := meta.Start.AddDate(0, 0, 2).Add(9 * time.Hour)

	// Device 1: has a home AP, updates on release day at 20:00 via home,
	// and keeps reporting the following day (whose data must be excised).
	b.nightAssoc(1, 0, 0x100, "aterm-one")
	spike := b.assoc(1, trace.IOS, 2, 20, 0, 0x100, "aterm-one", -50)
	spike.WiFiRX = 565 << 20
	after := b.add(1, trace.IOS, 3, 12, 0)
	after.WiFiRX = 5 << 20
	after.WiFiState = trace.WiFiOn

	// Device 2: has a home AP, updates on day 6 (delay 4 days).
	b.nightAssoc(2, 0, 0x200, "aterm-two")
	spike = b.assoc(2, trace.IOS, 6, 21, 0, 0x200, "aterm-two", -52)
	spike.WiFiRX = 565 << 20

	// Device 3: no home AP, updates on day 9 via a public AP (delay 7).
	spike = b.assoc(3, trace.IOS, 9, 13, 0, 0x300, "0000docomo", -62)
	spike.WiFiRX = 565 << 20

	// Device 4: no home AP, never updates.
	b.add(4, trace.IOS, 3, 12, 0)

	// Device 5: Android with a huge WiFi day — must not register.
	spike = b.assoc(5, trace.Android, 3, 12, 0, 0x500, "aterm-five", -50)
	spike.WiFiRX = 600 << 20

	return b, release
}

func TestUpdateTimingFull(t *testing.T) {
	b, release := updateFixture(t)
	p := b.prep(t, &release)

	ut := NewUpdateTiming(b.meta, p, release)
	// Raw pass: the analyzer must see update-day samples.
	if err := Run(Stream(b.src(), 1), p, nil, []Analyzer{ut}); err != nil {
		t.Fatal(err)
	}
	r := ut.Result()

	if r.TotalIOS != 4 || r.Updated != 3 {
		t.Fatalf("totals %d/%d", r.TotalIOS, r.Updated)
	}
	if math.Abs(r.UpdatedFrac-0.75) > 1e-9 {
		t.Fatalf("updated frac %g", r.UpdatedFrac)
	}
	if r.NoHomeIOS != 2 || r.UpdatedNoHome != 1 {
		t.Fatalf("no-home %d/%d", r.NoHomeIOS, r.UpdatedNoHome)
	}
	// Day-one updater: device 1 (20:00 on release day, 11 h after release).
	if math.Abs(r.FirstDayFrac-1.0/3) > 1e-9 {
		t.Fatalf("first-day frac %g", r.FirstDayFrac)
	}
	// Median delays: home devices {0.46, 4.5} → 2.48; no-home {7.17}.
	if r.MedianDelayGapDays < 4 || r.MedianDelayGapDays > 5.5 {
		t.Fatalf("median delay gap %g", r.MedianDelayGapDays)
	}
	// The no-home updater went through a public AP.
	if r.ViaClassNoHome[APPublic] != 1 {
		t.Fatalf("via classes %v", r.ViaClassNoHome)
	}
	// DayPDF sums to 1 over updaters.
	var sum float64
	for _, v := range r.DayPDF {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("day PDF sums to %g", sum)
	}
}

func TestUpdateExcisionRemovesFollowingDay(t *testing.T) {
	b, release := updateFixture(t)
	p := b.prep(t, &release)
	// Device 1 updated on day 2: days 2 and 3 are excluded, day 4 is not.
	for day, wantExcluded := range map[int]bool{2: true, 3: true} {
		ud := p.UserDays[UserDayKey{Device: 1, Day: day}]
		if wantExcluded && (ud == nil || !ud.Excluded) {
			t.Fatalf("day %d not excluded", day)
		}
	}
}
