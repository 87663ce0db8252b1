// Package repro reproduces "Designing internal control points in
// partially managed processes by using business vocabulary" (Doganata,
// ICDE 2011 workshops): a business provenance management system integrated
// with a business rule management system, so that internal control points
// are authored in business vocabulary and verified as subgraphs of the
// provenance graph.
//
// The library lives under internal/ (see DESIGN.md for the system
// inventory); cmd/provd serves it over HTTP, cmd/pctl is the CLI client,
// cmd/benchrunner regenerates the experiment tables, and examples/ holds
// four runnable walkthroughs. bench/ holds the end-to-end benchmark
// workloads.
package repro
