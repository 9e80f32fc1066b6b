// Package mobility builds per-user daily schedules on the 10-minute grid of
// the measurement software: where the user is in each interval (home,
// office, transit, public venue, elsewhere) and how intensely they use the
// phone there. Schedules reproduce the temporal structure of the paper's
// traffic curves: commute peaks at 8am and 7-9pm on cellular, lunch-hour
// activity, and the late-evening WiFi-at-home maximum (Fig. 2, §3.1).
package mobility

import (
	"math/rand"

	"smartusage/internal/geo"
	"smartusage/internal/population"
)

// BinsPerDay is the number of 10-minute sampling intervals per day.
const BinsPerDay = 144

// BinSeconds is the length of one interval.
const BinSeconds = 600

// Place is where the user spends one interval.
type Place uint8

// Places.
const (
	PlaceHome Place = iota
	PlaceOffice
	PlaceTransit
	PlacePublic // cafes, stations, shops — where public APs live
	PlaceOther  // school, workplaces without WiFi access, misc.
	NumPlaces
)

// String implements fmt.Stringer.
func (p Place) String() string {
	switch p {
	case PlaceHome:
		return "home"
	case PlaceOffice:
		return "office"
	case PlaceTransit:
		return "transit"
	case PlacePublic:
		return "public"
	case PlaceOther:
		return "other"
	}
	return "place(?)"
}

// Schedule is one user-day: place, position, and activity weight per bin.
// Activity weights are normalized to sum to 1 so multiplying by the day's
// demand yields per-bin volumes.
type Schedule struct {
	Place    [BinsPerDay]Place
	Pos      [BinsPerDay]geo.Point
	Activity [BinsPerDay]float64
}

// hourActivity is the base diurnal phone-usage curve (index = hour of day).
// Evenings dominate, nights are quiet, and the morning/noon bumps seed the
// cellular commute and lunch peaks.
var hourActivity = [24]float64{
	0.95, 0.55, 0.25, 0.12, 0.10, 0.15,
	0.45, 1.00, 1.20, 0.80, 0.75, 0.85,
	1.20, 0.95, 0.75, 0.75, 0.80, 0.90,
	1.05, 1.15, 1.20, 1.25, 1.30, 1.25,
}

// placeActivity scales usage by context: heavy phone use on trains, light
// use while working.
var placeActivity = [NumPlaces]float64{
	PlaceHome:    1.0,
	PlaceOffice:  0.45,
	PlaceTransit: 1.6,
	PlacePublic:  1.2,
	PlaceOther:   0.6,
}

// binOfClock converts hour:minute to a bin index.
func binOfClock(hour, minute int) int {
	b := hour*6 + minute/10
	if b < 0 {
		b = 0
	}
	if b >= BinsPerDay {
		b = BinsPerDay - 1
	}
	return b
}

// Fill overwrites s with the schedule of user u for one day, writing every
// bin, so a caller can refill one Schedule day after day. weekday selects
// the weekday routine; rng drives all jitter. The user's office (when
// present) anchors the commute; outings visit public venues near home or
// office.
func (s *Schedule) Fill(u *population.User, weekday bool, rng *rand.Rand) {
	// Default: the whole day at home.
	for i := range s.Place {
		s.Place[i] = PlaceHome
		s.Pos[i] = u.HomePos
	}

	if weekday {
		switch {
		case u.Occupation.Commutes() && u.Office != nil:
			buildCommuterDay(s, u, rng)
		case u.Occupation == population.OccStudent:
			buildStudentDay(s, u, rng)
		case u.Occupation == population.OccPartTimer:
			buildPartTimerDay(s, u, rng)
		case u.Occupation == population.OccSelfOwned:
			buildSelfOwnedDay(s, u, rng)
		default:
			buildHomeDay(s, u, rng, weekday)
		}
	} else {
		buildHomeDay(s, u, rng, weekday)
	}

	fillActivity(s, rng)
}

// span sets [from, to) bins to the given place/position.
func span(s *Schedule, from, to int, p Place, pos geo.Point) {
	if from < 0 {
		from = 0
	}
	if to > BinsPerDay {
		to = BinsPerDay
	}
	for i := from; i < to; i++ {
		s.Place[i] = p
		s.Pos[i] = pos
	}
}

// venueNear returns a public venue position within a few km of pos.
func venueNear(pos geo.Point, rng *rand.Rand) geo.Point {
	return geo.Point{
		X: pos.X + rng.NormFloat64()*2,
		Y: pos.Y + rng.NormFloat64()*2,
	}
}

// midpoint returns the commute midpoint with jitter, standing in for the
// rail corridor between two places.
func midpoint(a, b geo.Point, rng *rand.Rand) geo.Point {
	return geo.Point{
		X: (a.X+b.X)/2 + rng.NormFloat64()*1.5,
		Y: (a.Y+b.Y)/2 + rng.NormFloat64()*1.5,
	}
}

func buildCommuterDay(s *Schedule, u *population.User, rng *rand.Rand) {
	office := u.Office.Pos
	leave := binOfClock(7, 30) + rng.Intn(9) // 7:30-9:00
	transitLen := 3 + rng.Intn(5)            // 30-70 min
	arrive := leave + transitLen
	lunchStart := binOfClock(12, 0) + rng.Intn(3)
	lunchLen := 3 + rng.Intn(3)
	depart := binOfClock(17, 30) + rng.Intn(12) // 17:30-19:30
	homeBack := depart + transitLen

	span(s, leave, arrive, PlaceTransit, midpoint(u.HomePos, office, rng))
	span(s, arrive, depart, PlaceOffice, office)
	span(s, lunchStart, lunchStart+lunchLen, PlacePublic, venueNear(office, rng))
	span(s, depart, homeBack, PlaceTransit, midpoint(u.HomePos, office, rng))

	// Some evenings include an errand or outing on the way home.
	if rng.Float64() < 0.30 {
		outLen := 3 + rng.Intn(9)
		span(s, homeBack, homeBack+outLen, PlacePublic, venueNear(u.HomePos, rng))
	}
}

func buildStudentDay(s *Schedule, u *population.User, rng *rand.Rand) {
	school := venueNear(u.HomePos, rng)
	leave := binOfClock(7, 50) + rng.Intn(6)
	arrive := leave + 2 + rng.Intn(3)
	out := binOfClock(15, 30) + rng.Intn(9)
	span(s, leave, arrive, PlaceTransit, midpoint(u.HomePos, school, rng))
	span(s, arrive, out, PlaceOther, school)
	if rng.Float64() < 0.5 {
		hang := 3 + rng.Intn(9)
		span(s, out, out+hang, PlacePublic, venueNear(school, rng))
		out += hang
	}
	span(s, out, out+2+rng.Intn(3), PlaceTransit, midpoint(u.HomePos, school, rng))
}

func buildPartTimerDay(s *Schedule, u *population.User, rng *rand.Rand) {
	if rng.Float64() < 0.25 {
		buildHomeDay(s, u, rng, true) // day off
		return
	}
	work := venueNear(u.HomePos, rng)
	start := binOfClock(9, 0) + rng.Intn(36) // 9:00-15:00 shift start
	length := 24 + rng.Intn(18)              // 4-7 h
	span(s, start-2, start, PlaceTransit, midpoint(u.HomePos, work, rng))
	span(s, start, start+length, PlaceOther, work)
	span(s, start+length, start+length+2, PlaceTransit, midpoint(u.HomePos, work, rng))
}

func buildSelfOwnedDay(s *Schedule, u *population.User, rng *rand.Rand) {
	shop := venueNear(u.HomePos, rng)
	start := binOfClock(9, 0) + rng.Intn(12)
	end := binOfClock(18, 0) + rng.Intn(12)
	span(s, start, end, PlaceOther, shop)
	if rng.Float64() < 0.3 {
		lunch := binOfClock(12, 30)
		span(s, lunch, lunch+3, PlacePublic, venueNear(shop, rng))
	}
}

// buildHomeDay models housewives, "other", and everyone on weekends: mostly
// at home with one or two outings to public venues.
func buildHomeDay(s *Schedule, u *population.User, rng *rand.Rand, weekday bool) {
	outingProb := 0.65
	if weekday {
		outingProb = 0.55
	}
	if rng.Float64() < outingProb {
		start := binOfClock(10, 0) + rng.Intn(24) // 10:00-14:00
		length := 6 + rng.Intn(18)                // 1-4 h
		venue := venueNear(u.HomePos, rng)
		span(s, start-1, start, PlaceTransit, midpoint(u.HomePos, venue, rng))
		span(s, start, start+length, PlacePublic, venue)
		span(s, start+length, start+length+1, PlaceTransit, midpoint(u.HomePos, venue, rng))
	}
	if rng.Float64() < 0.25 {
		start := binOfClock(16, 0) + rng.Intn(12)
		length := 3 + rng.Intn(9)
		span(s, start, start+length, PlacePublic, venueNear(u.HomePos, rng))
	}
}

// fillActivity assigns normalized per-bin demand weights from the diurnal
// curve, place multipliers, and multiplicative jitter.
func fillActivity(s *Schedule, rng *rand.Rand) {
	var total float64
	for i := range s.Activity {
		hour := i / 6
		w := hourActivity[hour] * placeActivity[s.Place[i]]
		w *= 0.5 + rng.Float64() // jitter in [0.5, 1.5)
		s.Activity[i] = w
		total += w
	}
	for i := range s.Activity {
		s.Activity[i] /= total
	}
}
