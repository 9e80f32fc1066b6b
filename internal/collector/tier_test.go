package collector

// Tier-mode tests: replica placement validation and the failover-session
// accounting a replica keeps when agents arrive demoted from a dead peer.

import (
	"context"
	"net"
	"testing"
	"time"

	"smartusage/internal/obs"
	"smartusage/internal/proto"
	"smartusage/internal/trace"
	"smartusage/internal/wal/waltest"
)

func TestTierConfigValidation(t *testing.T) {
	sink := func(*trace.Sample) error { return nil }
	w := waltest.Open(t)
	for _, tc := range []struct {
		name     string
		id, tier int
		ok       bool
	}{
		{"standalone", 0, 0, true},
		{"first of three", 0, 3, true},
		{"last of three", 2, 3, true},
		{"beyond tier", 3, 3, false},
		{"negative id", -1, 3, false},
		{"id without tier", 1, 0, false},
	} {
		_, err := New(Config{Sink: sink, WAL: w, ReplicaID: tc.id, TierReplicas: tc.tier})
		if (err == nil) != tc.ok {
			t.Errorf("%s: ReplicaID=%d TierReplicas=%d: err=%v, want ok=%v", tc.name, tc.id, tc.tier, err, tc.ok)
		}
	}
}

// A hello carrying Replica > 0 announces a failed-over agent; the replica
// must count it so operators can see failover traffic concentrating.
func TestFailoverSessionCounting(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := New(Config{
		WAL:  waltest.Open(t),
		Addr: "127.0.0.1:0", ReadTimeout: time.Second,
		ReplicaID: 1, TierReplicas: 3,
		Sink:    func(*trace.Sample) error { return nil },
		Logf:    func(string, ...any) {},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	hello := func(replica uint32) {
		t.Helper()
		nc, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		c := proto.NewConn(nc)
		h := proto.Hello{Version: proto.Version, Device: 9, OS: trace.Android, Tier: 3, Replica: replica}
		if err := c.WriteFrame(proto.FrameHello, proto.AppendHello(nil, &h)); err != nil {
			t.Fatal(err)
		}
		if ft, _, err := c.ReadFrame(); err != nil || ft != proto.FrameHelloAck {
			t.Fatalf("hello ack: frame %v err %v", ft, err)
		}
		c.WriteFrame(proto.FrameBye, nil)
	}
	hello(0) // primary session: not a failover
	hello(1) // demoted once
	hello(2) // demoted twice

	if got := srv.Stats().FailoverSessions.Load(); got != 2 {
		t.Errorf("FailoverSessions = %d, want 2", got)
	}
	if got := reg.Counter("collector_failover_sessions_total").Value(); got != 2 {
		t.Errorf("collector_failover_sessions_total = %d, want 2", got)
	}
	if got := reg.Gauge("collector_replica_id").Value(); got != 1 {
		t.Errorf("collector_replica_id = %v, want 1", got)
	}
}
