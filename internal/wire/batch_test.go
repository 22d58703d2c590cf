package wire_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"serena/internal/device"
	"serena/internal/service"
	"serena/internal/value"
	"serena/internal/wire"
)

// startBatchNode hosts a messenger whose delivery fails for text "bad" —
// a per-item failure source inside an otherwise healthy batch.
func startBatchNode(t *testing.T) (addr string, srv *wire.Server) {
	t.Helper()
	reg := service.NewRegistry()
	if err := reg.RegisterPrototype(device.SendMessageProto()); err != nil {
		t.Fatal(err)
	}
	err := reg.Register(service.NewFunc("picky", map[string]service.InvokeFunc{
		"sendMessage": func(in value.Tuple, _ service.Instant) ([]value.Tuple, error) {
			if in[1].Str() == "bad" {
				return nil, errors.New("refused")
			}
			return []value.Tuple{{value.NewBool(true)}}, nil
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	srv = wire.NewServer("node-B", reg)
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return bound, srv
}

func msg(text string) value.Tuple {
	return value.Tuple{value.NewString("a@b"), value.NewString(text)}
}

// TestBatchInvokeRoundTrip: one wire frame carries many invocations;
// results come back positional with per-item errors — one refused delivery
// must not fail its neighbours.
func TestBatchInvokeRoundTrip(t *testing.T) {
	addr, _ := startBatchNode(t)
	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inputs := []value.Tuple{msg("one"), msg("bad"), msg("three"), msg("four")}
	out := c.InvokeBatchCtx(ctx, "sendMessage", "picky", inputs, 5)
	if len(out) != 4 {
		t.Fatalf("results = %d, want 4", len(out))
	}
	for i := range out {
		if i == 1 {
			if out[i].Err == nil || !strings.Contains(out[i].Err.Error(), "refused") {
				t.Fatalf("item 1: err = %v, want refused", out[i].Err)
			}
			continue
		}
		if out[i].Err != nil {
			t.Fatalf("item %d: %v", i, out[i].Err)
		}
		if len(out[i].Rows) != 1 || !out[i].Rows[0][0].Bool() {
			t.Fatalf("item %d: rows = %v", i, out[i].Rows)
		}
	}
}

// TestRemoteProxyBatchesThroughRegistry: a Remote proxy registered locally
// is a Batcher, so Registry.InvokeAll sends ONE wire frame for the whole
// group instead of per-item round trips.
func TestRemoteProxyBatchesThroughRegistry(t *testing.T) {
	addr, _ := startBatchNode(t)
	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, infos, err := c.Describe()
	if err != nil {
		t.Fatal(err)
	}
	var remote *wire.Remote
	for _, info := range infos {
		if info.Ref == "picky" {
			remote = wire.NewRemote(c, info)
		}
	}
	if remote == nil {
		t.Fatal("picky not described")
	}
	local := service.NewRegistry()
	if err := local.RegisterPrototype(device.SendMessageProto()); err != nil {
		t.Fatal(err)
	}
	if err := local.Register(remote); err != nil {
		t.Fatal(err)
	}
	var _ service.Batcher = remote // compile-time: proxies batch

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := local.InvokeAll(ctx, "sendMessage", "picky",
		[]value.Tuple{msg("a"), msg("bad"), msg("c")}, 2)
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("healthy items failed: %+v", out)
	}
	if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "refused") {
		t.Fatalf("item 1: err = %v, want refused", out[1].Err)
	}
}
