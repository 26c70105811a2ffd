package ycsb

// RunWith is Run with the keys drawn from dist instead of the
// ScrambledZipfian every product caller runs with.
func RunWith(db DB, cfg Config, dist Generator) Result { return run(db, cfg, dist) }
