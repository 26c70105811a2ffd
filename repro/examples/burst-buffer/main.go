// Burst-buffer: the Boldio scenario from Section V — Hadoop-style
// file streams staged in the erasure-coded in-memory store and
// asynchronously persisted to a (directory-backed) Lustre. Shows the
// full data lifecycle: burst write, in-memory read-back, degraded
// read-back after two failures, and cold recovery from the PFS after
// losing the whole cache.
//
//	go -C repro run ./examples/burst-buffer
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"os"

	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/repro/internal/boldio"
	"ecstore/repro/internal/lustre"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The burst-buffer cluster (the 5 "storage nodes").
	cl, err := cluster.Start(cluster.Config{N: 5})
	if err != nil {
		return err
	}
	defer cl.Close()
	client, err := core.New(core.Config{
		Network:    cl.Network(),
		Servers:    cl.Addrs(),
		Resilience: core.ResilienceErasure,
		Scheme:     core.SchemeCECD,
		K:          3, M: 2,
	})
	if err != nil {
		return err
	}
	defer client.Close()

	// The "Lustre" mount: a local directory.
	dir, err := os.MkdirTemp("", "boldio-lustre-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pfs, err := lustre.NewDirFS(dir)
	if err != nil {
		return err
	}
	defer pfs.Close()

	bb, err := boldio.New(boldio.Config{
		Client:    client,
		FS:        pfs,
		ChunkSize: 256 << 10,
	})
	if err != nil {
		return err
	}
	defer bb.Close()

	// A map task writes its output file through the burst buffer.
	fileData := make([]byte, 3<<20+4321)
	rand.New(rand.NewSource(1)).Read(fileData)
	n, err := bb.WriteFile("job-42/part-00000", bytes.NewReader(fileData))
	if err != nil {
		return err
	}
	fmt.Printf("burst write: %d bytes staged in the KV cache\n", n)

	// Read back hot (from memory).
	var out bytes.Buffer
	if _, err := bb.ReadFile("job-42/part-00000", &out); err != nil {
		return err
	}
	fmt.Printf("hot read: %d bytes, intact=%v\n", out.Len(), bytes.Equal(out.Bytes(), fileData))

	// Wait for async persistence, then verify the Lustre copy exists.
	if err := bb.Flush(); err != nil {
		return err
	}
	size, err := pfs.Size("job-42/part-00000")
	if err != nil {
		return err
	}
	fmt.Printf("persisted to lustre: %d bytes at %s\n", size, dir)

	// Two servers die: reads decode from the surviving chunks.
	cl.Kill(0)
	cl.Kill(4)
	out.Reset()
	if _, err := bb.ReadFile("job-42/part-00000", &out); err != nil {
		return err
	}
	fmt.Printf("degraded read (2 of 5 servers down): intact=%v\n",
		bytes.Equal(out.Bytes(), fileData))

	// Catastrophe: a third server dies — beyond RS(3,2). The burst
	// buffer transparently falls back to the persisted Lustre copy.
	cl.Kill(1)
	out.Reset()
	if _, err := bb.ReadFile("job-42/part-00000", &out); err != nil {
		return err
	}
	fmt.Printf("cold read from lustre (3 of 5 servers down): intact=%v\n",
		bytes.Equal(out.Bytes(), fileData))
	return nil
}
