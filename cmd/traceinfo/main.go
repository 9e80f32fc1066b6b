// Command traceinfo inspects a trace file: integrity (every record decodes
// and validates; it exits non-zero at the first that does not), the
// device/date inventory, per-OS composition, and volume totals. It reads
// binary traces and JSON Lines, telling them apart by their first bytes.
//
// Usage:
//
//	traceinfo campaign-2015.trace
//	traceinfo campaign-2015.jsonl
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"smartusage/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("traceinfo: ")
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: traceinfo <trace-file>")
	}
	path := flag.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	read, format, err := trace.Sniff(f)
	if err != nil {
		log.Fatal(err)
	}

	type devInfo struct {
		os       trace.OS
		samples  int
		first    int64
		last     int64
		outOfOrd int
	}
	devices := map[trace.DeviceID]*devInfo{}
	var (
		samples, tethered, associated  int
		cellRX, cellTX, wifiRX, wifiTX uint64
		minT, maxT                     int64
		apPairs                        = map[trace.BSSID]bool{}
	)
	err = read(func(s *trace.Sample) error {
		samples++
		if err := s.Validate(); err != nil {
			return fmt.Errorf("sample %d: %w", samples, err)
		}
		d := devices[s.Device]
		if d == nil {
			d = &devInfo{os: s.OS, first: s.Time, last: s.Time}
			devices[s.Device] = d
		}
		d.samples++
		if s.Time < d.last {
			d.outOfOrd++
		}
		if s.Time > d.last {
			d.last = s.Time
		}
		if minT == 0 || s.Time < minT {
			minT = s.Time
		}
		if s.Time > maxT {
			maxT = s.Time
		}
		if s.Tethered {
			tethered++
		}
		if s.WiFiState == trace.WiFiAssociated {
			associated++
		}
		cellRX += s.CellRX
		cellTX += s.CellTX
		wifiRX += s.WiFiRX
		wifiTX += s.WiFiTX
		for i := range s.APs {
			apPairs[s.APs[i].BSSID] = true
		}
		return nil
	})
	if err != nil {
		log.Fatalf("integrity failure after %d samples: %v", samples, err)
	}

	var android, ios, disordered int
	for _, d := range devices {
		if d.os == trace.Android {
			android++
		} else {
			ios++
		}
		disordered += d.outOfOrd
	}
	jst := time.FixedZone("JST", 9*3600)
	fmt.Printf("file:        %s (%s)\n", path, format)
	fmt.Printf("samples:     %d (%d tethered, %d associated)\n", samples, tethered, associated)
	fmt.Printf("devices:     %d (%d android, %d ios)\n", len(devices), android, ios)
	if samples > 0 {
		fmt.Printf("time range:  %s .. %s\n",
			time.Unix(minT, 0).In(jst).Format("2006-01-02 15:04"),
			time.Unix(maxT, 0).In(jst).Format("2006-01-02 15:04"))
	}
	fmt.Printf("volumes:     cell RX %.1f MB / TX %.1f MB, wifi RX %.1f MB / TX %.1f MB\n",
		float64(cellRX)/1e6, float64(cellTX)/1e6, float64(wifiRX)/1e6, float64(wifiTX)/1e6)
	fmt.Printf("unique APs:  %d BSSIDs observed\n", len(apPairs))
	if disordered > 0 {
		fmt.Printf("WARNING: %d out-of-order samples across devices\n", disordered)
	}
}
