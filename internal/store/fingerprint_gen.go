// Code generated by "go run repro/cmd/simfp"; DO NOT EDIT.

package store

// genFingerprint is the content hash over the simulator-semantics
// packages (see cmd/simfp for the set). Regenerate after any simulator
// change with `go generate ./internal/store`; the store-check CI
// target fails while it is stale.
const genFingerprint = "sim-62f69b7e98fc4587"
