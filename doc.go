// Package ecstore is a high-performance, resilient in-memory key-value
// store with online Reed-Solomon erasure coding, reproducing
// "High-Performance and Resilient Key-Value Store with Online Erasure
// Coding for Big Data Workloads" (Shankar, Lu, Panda — ICDCS 2017).
//
// The library lives under internal/:
//
//   - internal/core — the client: non-blocking ISet/IGet/Wait APIs and
//     the resilience strategies (replication, three erasure schemes,
//     hybrid).
//   - internal/server, internal/store — the Memcached-style server.
//   - internal/gf256, internal/erasure — the coding substrate.
//
// The paper's reproduction is the nested module repro/: the
// virtual-time cluster simulator, the Figure 4 codec study and the
// burst-buffer case study, with one benchmark per table and figure:
//
//	go -C repro test -bench=. -benchmem .
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-vs-measured record.
package ecstore
