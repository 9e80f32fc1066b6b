// Package trace defines the measurement record model of the reproduced
// study: the 10-minute device sample described in §2 of Fukuda et al.
// (IMC 2015), its enumerations (OS, interface, radio access technology, WiFi
// band and state, application category), and streaming codecs for traces in
// a compact binary format and in JSON Lines.
//
// Every other package speaks in these types: the simulator and agent produce
// Samples, the collector spools them, and the analyzers consume them.
package trace

import "fmt"

// DeviceID is the "unique random device ID" each installation of the
// measurement software reports (§2).
type DeviceID uint64

// String renders the ID as 16 hex digits.
func (d DeviceID) String() string { return fmt.Sprintf("%016x", uint64(d)) }

// OS identifies the device operating system. The two OSes differ in what the
// measurement software can observe (§2): Android reports per-application
// traffic and non-associated WiFi scan results; iOS reports neither.
type OS uint8

// Supported operating systems.
const (
	Android OS = iota
	IOS
	numOS
)

// String implements fmt.Stringer.
func (o OS) String() string {
	switch o {
	case Android:
		return "android"
	case IOS:
		return "ios"
	}
	return fmt.Sprintf("os(%d)", uint8(o))
}

// Valid reports whether o is a known OS value.
func (o OS) Valid() bool { return o < numOS }

// Iface identifies a network interface of the device.
type Iface uint8

// Network interfaces.
const (
	Cellular Iface = iota
	WiFi
	numIface
)

// String implements fmt.Stringer.
func (i Iface) String() string {
	switch i {
	case Cellular:
		return "cellular"
	case WiFi:
		return "wifi"
	}
	return fmt.Sprintf("iface(%d)", uint8(i))
}

// RAT is the cellular radio access technology. The campaigns straddle the
// Japanese 3G-to-LTE migration: LTE carries 25% of cellular traffic in the
// 2013 dataset and 80% in 2015 (Table 1).
type RAT uint8

// Radio access technologies.
const (
	RAT3G RAT = iota
	RATLTE
	numRAT
)

// String implements fmt.Stringer.
func (r RAT) String() string {
	switch r {
	case RAT3G:
		return "3g"
	case RATLTE:
		return "lte"
	}
	return fmt.Sprintf("rat(%d)", uint8(r))
}

// Band is a WiFi frequency band. §3.4.3 tracks the rollout of 5 GHz APs.
type Band uint8

// WiFi bands.
const (
	Band24 Band = iota // 2.4 GHz
	Band5              // 5 GHz
	numBand
)

// String implements fmt.Stringer.
func (b Band) String() string {
	switch b {
	case Band24:
		return "2.4GHz"
	case Band5:
		return "5GHz"
	}
	return fmt.Sprintf("band(%d)", uint8(b))
}

// WiFiState is the device-level WiFi interface state. §3.3.4 classifies
// Android users each time bin as WiFi-user (associated), WiFi-available
// (interface on, no association), or WiFi-off (interface explicitly off).
type WiFiState uint8

// WiFi interface states.
const (
	WiFiOff        WiFiState = iota // interface explicitly turned off
	WiFiOn                          // on but not associated ("WiFi-available")
	WiFiAssociated                  // associated with an AP ("WiFi-user")
	numWiFiState
)

// String implements fmt.Stringer.
func (s WiFiState) String() string {
	switch s {
	case WiFiOff:
		return "off"
	case WiFiOn:
		return "on"
	case WiFiAssociated:
		return "associated"
	}
	return fmt.Sprintf("wifistate(%d)", uint8(s))
}

// BSSID is a WiFi AP MAC address packed into the low 48 bits.
type BSSID uint64

// String renders the BSSID in colon-separated MAC notation.
func (b BSSID) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
		byte(b>>40), byte(b>>32), byte(b>>24), byte(b>>16), byte(b>>8), byte(b))
}

// APObs is one observed WiFi access point within a sample: the (BSSID,
// ESSID) pair the paper uses to identify APs (§3.4.1), the received signal
// strength (§3.4.4), and the channel/band (§3.4.3, §3.4.5). Associated marks
// the AP the device is connected to; at most one observation per sample may
// be associated.
type APObs struct {
	BSSID      BSSID
	ESSID      string
	RSSI       int8 // dBm, typically -90..-20
	Channel    uint8
	Band       Band
	Associated bool
}

// AppTraffic is the traffic of one application category over the sampling
// interval, attributed to the interface that carried it. Only Android
// samples carry application records: "iOS has no interface to obtain the
// traffic volume per application" (§2).
type AppTraffic struct {
	Category Category
	Iface    Iface
	RX       uint64 // bytes downloaded during the interval
	TX       uint64 // bytes uploaded during the interval
}

// Sample is one 10-minute report from a device: interface byte counters
// (as deltas over the interval), application breakdown, WiFi observations,
// coarse 5 km geolocation, battery level, and flags the cleaning pass uses.
type Sample struct {
	Device DeviceID
	OS     OS
	// Time is the start of the 10-minute interval, Unix seconds (JST
	// campaigns; the zone lives in the campaign metadata).
	Time int64

	// GeoCX/GeoCY locate the device on the 5 km grid (geo.Cell).
	GeoCX int16
	GeoCY int16

	WiFiState WiFiState
	RAT       RAT
	// Carrier is the cellular provider index (0-2 for the three major
	// Japanese carriers); §3.3.4 compares WiFi behaviour across carriers.
	Carrier uint8

	CellRX uint64
	CellTX uint64
	WiFiRX uint64
	WiFiTX uint64

	Apps []AppTraffic
	APs  []APObs

	Battery uint8 // percent 0..100
	// Tethered marks intervals dominated by tethering; the paper removes
	// such data ("we removed tethering traffic data", §2).
	Tethered bool
}

// AssociatedAP returns the AP observation the device is associated with, or
// nil when not associated.
func (s *Sample) AssociatedAP() *APObs {
	for i := range s.APs {
		if s.APs[i].Associated {
			return &s.APs[i]
		}
	}
	return nil
}

// TotalRX returns cellular plus WiFi download bytes.
func (s *Sample) TotalRX() uint64 { return s.CellRX + s.WiFiRX }

// TotalTX returns cellular plus WiFi upload bytes.
func (s *Sample) TotalTX() uint64 { return s.CellTX + s.WiFiTX }

// Validate checks internal consistency and returns a descriptive error for
// the first violation found: unknown enum values, multiple associated APs,
// association recorded while the interface is off, app traffic exceeding
// interface counters, or an out-of-range battery level.
func (s *Sample) Validate() error {
	if !s.OS.Valid() {
		return fmt.Errorf("trace: sample %s: invalid OS %d", s.Device, s.OS)
	}
	if s.WiFiState >= numWiFiState {
		return fmt.Errorf("trace: sample %s: invalid WiFi state %d", s.Device, s.WiFiState)
	}
	if s.RAT >= numRAT {
		return fmt.Errorf("trace: sample %s: invalid RAT %d", s.Device, s.RAT)
	}
	if s.Carrier > 2 {
		return fmt.Errorf("trace: sample %s: invalid carrier %d", s.Device, s.Carrier)
	}
	if s.Battery > 100 {
		return fmt.Errorf("trace: sample %s: battery %d%% out of range", s.Device, s.Battery)
	}
	assoc := 0
	for i := range s.APs {
		ap := &s.APs[i]
		if ap.Band >= numBand {
			return fmt.Errorf("trace: sample %s: AP %s invalid band %d", s.Device, ap.BSSID, ap.Band)
		}
		if ap.Associated {
			assoc++
		}
	}
	if assoc > 1 {
		return fmt.Errorf("trace: sample %s: %d associated APs", s.Device, assoc)
	}
	if assoc == 1 && s.WiFiState != WiFiAssociated {
		return fmt.Errorf("trace: sample %s: associated AP with WiFi state %s", s.Device, s.WiFiState)
	}
	if s.WiFiState == WiFiAssociated && assoc == 0 {
		return fmt.Errorf("trace: sample %s: WiFi state associated without associated AP", s.Device)
	}
	if s.WiFiState == WiFiOff && (s.WiFiRX > 0 || s.WiFiTX > 0) {
		return fmt.Errorf("trace: sample %s: WiFi traffic with interface off", s.Device)
	}
	var appCellRX, appCellTX, appWiFiRX, appWiFiTX uint64
	for _, a := range s.Apps {
		if !a.Category.Valid() {
			return fmt.Errorf("trace: sample %s: invalid app category %d", s.Device, a.Category)
		}
		switch a.Iface {
		case Cellular:
			appCellRX += a.RX
			appCellTX += a.TX
		case WiFi:
			appWiFiRX += a.RX
			appWiFiTX += a.TX
		default:
			return fmt.Errorf("trace: sample %s: invalid app iface %d", s.Device, a.Iface)
		}
	}
	if appCellRX > s.CellRX || appCellTX > s.CellTX || appWiFiRX > s.WiFiRX || appWiFiTX > s.WiFiTX {
		return fmt.Errorf("trace: sample %s: app traffic exceeds interface counters", s.Device)
	}
	if s.OS == IOS && len(s.Apps) > 0 {
		return fmt.Errorf("trace: sample %s: iOS sample carries app records", s.Device)
	}
	return nil
}
