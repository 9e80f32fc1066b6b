package wifi

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"smartusage/internal/geo"
	"smartusage/internal/trace"
)

func TestIsPublicESSID(t *testing.T) {
	if !IsPublicESSID("0000docomo") || !IsPublicESSID("eduroam") {
		t.Fatal("known public ESSIDs rejected")
	}
	if IsPublicESSID("aterm-1234-g") || IsPublicESSID("") {
		t.Fatal("private ESSID accepted")
	}
}

func TestInterferes(t *testing.T) {
	cases := []struct {
		a, b uint8
		band trace.Band
		want bool
	}{
		{1, 1, trace.Band24, true},
		{1, 5, trace.Band24, true},  // 4 apart: overlaps
		{1, 6, trace.Band24, false}, // 5 apart: clear
		{6, 11, trace.Band24, false},
		{11, 6, trace.Band24, false}, // symmetric
		{36, 40, trace.Band5, false}, // 5 GHz orthogonal
		{36, 36, trace.Band5, true},
	}
	for _, c := range cases {
		if got := Interferes(c.a, c.b, c.band); got != c.want {
			t.Errorf("Interferes(%d,%d,%v)=%v want %v", c.a, c.b, c.band, got, c.want)
		}
	}
}

func TestPathLossMonotone(t *testing.T) {
	pl := DefaultPathLoss
	pl.ShadowSigma = 0
	prev := pl.RSSI(15, 1, nil)
	for d := 2.0; d < 300; d *= 1.5 {
		cur := pl.RSSI(15, d, nil)
		if cur > prev {
			t.Fatalf("RSSI increased with distance at %g m", d)
		}
		prev = cur
	}
}

func TestPathLossClamps(t *testing.T) {
	pl := PathLoss{PL0: 40, D0: 1, Exponent: 3}
	if got := pl.RSSI(100, 1, nil); got != -20 {
		t.Fatalf("upper clamp: %g", got)
	}
	if got := pl.RSSI(-50, 1000, nil); got != -95 {
		t.Fatalf("lower clamp: %g", got)
	}
	// Distances below D0 are treated as D0.
	if a, b := pl.RSSI(15, 0.1, nil), pl.RSSI(15, 1, nil); a != b {
		t.Fatalf("sub-reference distance: %g != %g", a, b)
	}
}

// Property: shadowing is zero-mean — averaged RSSI approaches the
// deterministic value.
func TestPathLossShadowingMean(t *testing.T) {
	pl := DefaultPathLoss
	rng := rand.New(rand.NewSource(1))
	det := PathLoss{PL0: pl.PL0, D0: pl.D0, Exponent: pl.Exponent}.RSSI(15, 20, nil)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += pl.RSSI(15, 20, rng)
	}
	if mean := sum / n; math.Abs(mean-det) > 0.2 {
		t.Fatalf("shadowed mean %g vs deterministic %g", mean, det)
	}
}

func TestDeployParamsForYear(t *testing.T) {
	for _, year := range []int{2013, 2014, 2015} {
		p, err := DeployParamsForYear(year, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if p.PublicAPs <= 0 || p.Public5GHzFrac <= 0 || p.Public5GHzFrac >= 1 {
			t.Fatalf("%d: bad params %+v", year, p)
		}
	}
	if _, err := DeployParamsForYear(2012, 1); err == nil {
		t.Fatal("unknown year accepted")
	}
	// Scaling shrinks the deployment proportionally.
	full, _ := DeployParamsForYear(2015, 1.0)
	half, _ := DeployParamsForYear(2015, 0.5)
	if half.PublicAPs < full.PublicAPs/2-1 || half.PublicAPs > full.PublicAPs/2+1 {
		t.Fatalf("scale 0.5: %d vs full %d", half.PublicAPs, full.PublicAPs)
	}
}

func TestDeploymentGrowth(t *testing.T) {
	count := func(year int) int {
		p, err := DeployParamsForYear(year, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDeployment(p, rand.New(rand.NewSource(1)))
		return len(d.Public)
	}
	n13, n15 := count(2013), count(2015)
	// Public deployment roughly doubles 2013 → 2015 (Table 4).
	if ratio := float64(n15) / float64(n13); ratio < 1.7 || ratio > 2.6 {
		t.Fatalf("2015/2013 public AP ratio %.2f (n13=%d n15=%d)", ratio, n13, n15)
	}
}

func TestDeploymentInvariants(t *testing.T) {
	p, err := DeployParamsForYear(2015, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDeployment(p, rand.New(rand.NewSource(7)))

	seen := map[trace.BSSID]bool{}
	var n5 int
	for i := range d.Public {
		ap := &d.Public[i]
		if seen[ap.BSSID] {
			t.Fatalf("duplicate BSSID %s", ap.BSSID)
		}
		seen[ap.BSSID] = true
		if !IsPublicESSID(ap.ESSID) {
			t.Fatalf("public AP with private ESSID %q", ap.ESSID)
		}
		switch ap.Band {
		case trace.Band24:
			if ap.Channel < 1 || ap.Channel > Channels24 {
				t.Fatalf("2.4 GHz channel %d", ap.Channel)
			}
		case trace.Band5:
			n5++
			ok := false
			for _, ch := range Channels5 {
				if ap.Channel == ch {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("5 GHz channel %d", ap.Channel)
			}
		default:
			t.Fatalf("bad band %v", ap.Band)
		}
	}
	frac5 := float64(n5) / float64(len(d.Public))
	if frac5 < p.Public5GHzFrac*0.7 || frac5 > p.Public5GHzFrac*1.3 {
		t.Fatalf("5 GHz frac %.2f, configured %.2f", frac5, p.Public5GHzFrac)
	}
}

func TestPublic24ChannelsMostlyNonOverlapping(t *testing.T) {
	p, _ := DeployParamsForYear(2015, 0.3)
	d := NewDeployment(p, rand.New(rand.NewSource(3)))
	var on, off int
	for i := range d.Public {
		ap := &d.Public[i]
		if ap.Band != trace.Band24 {
			continue
		}
		switch ap.Channel {
		case 1, 6, 11:
			on++
		default:
			off++
		}
	}
	frac := float64(on) / float64(on+off)
	if frac < 0.80 || frac > 0.97 {
		t.Fatalf("1/6/11 fraction %.2f, want engineered-with-residue (~0.88)", frac)
	}
}

func TestPublicNear(t *testing.T) {
	p, _ := DeployParamsForYear(2015, 0.3)
	d := NewDeployment(p, rand.New(rand.NewSource(9)))
	downtown := d.PublicNear(geo.Point{}, 0)
	if len(downtown) == 0 {
		t.Fatal("no public APs in the downtown cell")
	}
	for _, idx := range downtown {
		if d.Public[idx].Cell() != geo.CellOf(geo.Point{}) {
			t.Fatal("PublicNear(0) returned AP outside the cell")
		}
	}
	wide := d.PublicNear(geo.Point{}, 1)
	if len(wide) < len(downtown) {
		t.Fatal("radius-1 query returned fewer APs than radius-0")
	}
	// Remote corner should be empty.
	if got := d.PublicNear(geo.Point{X: -89, Y: -89}, 0); len(got) != 0 {
		t.Fatalf("corner cell has %d APs", len(got))
	}
}

func TestHomeAPFactory(t *testing.T) {
	p, _ := DeployParamsForYear(2013, 0.3)
	d := NewDeployment(p, rand.New(rand.NewSource(5)))
	var ch1, total24 int
	seen := map[trace.BSSID]bool{}
	for i := 0; i < 3000; i++ {
		ap := d.NewHomeAP(geo.Point{X: 1, Y: 1})
		if ap.Class != ClassHome {
			t.Fatal("wrong class")
		}
		if seen[ap.BSSID] {
			t.Fatal("duplicate home BSSID")
		}
		seen[ap.BSSID] = true
		if IsPublicESSID(ap.ESSID) {
			t.Fatalf("home AP with public ESSID %q", ap.ESSID)
		}
		if ap.Band == trace.Band24 {
			total24++
			if ap.Channel == 1 {
				ch1++
			}
		}
	}
	frac := float64(ch1) / float64(total24)
	// 2013: ~30% default to channel 1 plus 1/13 of the rest.
	if frac < 0.28 || frac > 0.45 {
		t.Fatalf("2013 home ch1 fraction %.2f", frac)
	}
}

func TestOtherFactories(t *testing.T) {
	p, _ := DeployParamsForYear(2015, 0.3)
	d := NewDeployment(p, rand.New(rand.NewSource(6)))
	office := d.NewOfficeAP(geo.Point{})
	if office.Class != ClassOffice || office.BSSID == 0 {
		t.Fatalf("office AP %+v", office)
	}
	mob := d.NewMobileAP()
	if mob.Class != ClassMobile || mob.Band != trace.Band24 {
		t.Fatalf("mobile AP %+v", mob)
	}
	open := d.NewOpenAP(geo.Point{X: 2})
	if open.Class != ClassOpen || open.BSSID == 0 || open.Channel == 0 || IsPublicESSID(open.ESSID) {
		t.Fatalf("open AP %+v", open)
	}
}

// Property: deployment generation is deterministic in the seed.
func TestDeploymentDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		p, err := DeployParamsForYear(2014, 0.1)
		if err != nil {
			return false
		}
		a := NewDeployment(p, rand.New(rand.NewSource(seed)))
		b := NewDeployment(p, rand.New(rand.NewSource(seed)))
		if len(a.Public) != len(b.Public) {
			return false
		}
		for i := range a.Public {
			if a.Public[i] != b.Public[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestClassString(t *testing.T) {
	want := map[Class]string{
		ClassHome: "home", ClassPublic: "public", ClassOffice: "office",
		ClassMobile: "mobile", ClassOpen: "open",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q want %q", c, c.String(), s)
		}
	}
}
