// Command pinted is the PInTE campaign service: a long-running HTTP
// daemon that accepts sweep submissions from many tenants, runs them on
// one shared worker pool under weighted fair scheduling, admission
// control and per-tenant quotas, streams per-run results as NDJSON, and
// stores every completed run in its result store before streaming it —
// kill -9 the process at any instant and the next start resumes every
// unfinished campaign exactly where it stopped.
//
// Usage:
//
//	pinted -addr localhost:8322 -data /var/lib/pinted
//	curl -XPOST -H 'X-Tenant: alice' -d '{"workloads":["450.soplex"]}' localhost:8322/v1/campaigns
//	curl localhost:8322/v1/campaigns/<id>/results
//
// SIGTERM drains gracefully: admission stops (503), queued runs are
// shed back to their campaigns, in-flight runs finish and are stored,
// then the process exits; the shed runs resume on the next start.
package main

import (
	"os"

	"repro/internal/server"
)

func main() {
	os.Exit(server.Main(os.Args[1:], os.Stdout, os.Stderr))
}
