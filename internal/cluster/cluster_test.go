package cluster

import (
	"errors"
	"testing"

	"ecstore/internal/membership"
	"ecstore/internal/rpc"
	"ecstore/internal/wire"
)

func TestStartAndClose(t *testing.T) {
	cl, err := Start(Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Alive() != 5 {
		t.Fatalf("alive = %d", cl.Alive())
	}
	if len(cl.Addrs()) != 5 {
		t.Fatalf("addrs = %v", cl.Addrs())
	}
	pool := rpc.NewPool(cl.Network())
	defer pool.Close()
	for _, addr := range cl.Addrs() {
		if _, err := pool.Roundtrip(addr, &wire.Request{Op: wire.OpPing, Key: "p"}); err != nil {
			t.Fatalf("ping %s: %v", addr, err)
		}
	}
}

func TestKillAndRestart(t *testing.T) {
	cl, err := Start(Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pool := rpc.NewPool(cl.Network())
	defer pool.Close()

	addr := cl.Addrs()[1]
	cl.Kill(1)
	if cl.Alive() != 2 {
		t.Fatalf("alive = %d", cl.Alive())
	}
	if cl.Server(1) != nil {
		t.Fatal("killed server still returned")
	}
	if _, err := pool.Roundtrip(addr, &wire.Request{Op: wire.OpPing, Key: "p"}); !errors.Is(err, rpc.ErrServerDown) {
		t.Fatalf("ping dead server: %v", err)
	}
	cl.Kill(1) // idempotent

	if err := cl.Restart(1); err != nil {
		t.Fatal(err)
	}
	if cl.Alive() != 3 {
		t.Fatalf("alive = %d after restart", cl.Alive())
	}
	if err := cl.Restart(1); err == nil {
		t.Fatal("restarting a running server succeeded")
	}
	if _, err := pool.Roundtrip(addr, &wire.Request{Op: wire.OpPing, Key: "p"}); err != nil {
		t.Fatalf("ping restarted server: %v", err)
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := Start(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestMemoryCapApplied(t *testing.T) {
	cl, err := Start(Config{N: 1, StoreBytesPerServer: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got := cl.Server(0).Store().MaxBytes(); got != 1<<20 {
		t.Fatalf("MaxBytes = %d", got)
	}
}

func TestAddServer(t *testing.T) {
	cl, err := Start(Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pool := rpc.NewPool(cl.Network())
	defer pool.Close()

	i, err := cl.AddServer("kv-joiner")
	if err != nil {
		t.Fatal(err)
	}
	if i != 3 {
		t.Fatalf("index = %d, want 3", i)
	}
	if cl.Alive() != 4 {
		t.Fatalf("alive = %d", cl.Alive())
	}
	if got := cl.Addrs(); len(got) != 4 || got[3] != "kv-joiner" {
		t.Fatalf("addrs = %v", got)
	}
	if _, err := pool.Roundtrip("kv-joiner", &wire.Request{Op: wire.OpPing, Key: "p"}); err != nil {
		t.Fatalf("ping joiner: %v", err)
	}
	// The joiner is on the transport but NOT in anyone's ring yet: it
	// seeds its own private epoch-1 view over the cluster's static
	// peers plus itself, and the incumbents' views are untouched.
	if v := cl.Server(0).View(); v.Contains("kv-joiner") {
		t.Fatalf("incumbent adopted the joiner without an epoch push: %v", v)
	}

	if _, err := cl.AddServer("kv-joiner"); err == nil {
		t.Fatal("duplicate AddServer succeeded")
	}
	if _, err := cl.AddServer(""); err == nil {
		t.Fatal("empty AddServer succeeded")
	}
}

func TestRemoveServerTombstones(t *testing.T) {
	cl, err := Start(Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	cl.RemoveServer(1)
	if cl.Alive() != 2 {
		t.Fatalf("alive = %d", cl.Alive())
	}
	if err := cl.Restart(1); err == nil {
		t.Fatal("restarted a removed server")
	}
	if err := cl.RestartWithView(1, membership.NewView(cl.Addrs())); err == nil {
		t.Fatal("RestartWithView revived a removed server")
	}
	cl.RemoveServer(1) // idempotent

	// The other servers are unaffected and restartable.
	cl.Kill(2)
	if err := cl.Restart(2); err != nil {
		t.Fatalf("restart untombstoned server: %v", err)
	}
}

func TestRestartWithView(t *testing.T) {
	cl, err := Start(Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The cluster's epoch has moved on to 2 while server 0 was down; a
	// rolling restart brings it back already speaking the new epoch.
	next := membership.NewView(cl.Addrs()).WithAdded("kv-late")
	cl.Kill(0)
	if err := cl.RestartWithView(0, next); err != nil {
		t.Fatal(err)
	}
	if got := cl.Server(0).View(); got.Epoch != 2 || !got.Contains("kv-late") {
		t.Fatalf("restarted view = %v, want %v", got, next)
	}
	// A plain restart seeds epoch 1 from the static peer list.
	cl.Kill(1)
	if err := cl.Restart(1); err != nil {
		t.Fatal(err)
	}
	if got := cl.Server(1).View(); got.Epoch != 1 {
		t.Fatalf("plain restart epoch = %d, want 1", got.Epoch)
	}
}
