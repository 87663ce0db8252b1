// Command pctl is the command-line client for provd: it generates and
// ingests simulated process events, deploys internal controls written in
// business vocabulary, and queries compliance results and dashboard KPIs.
//
// Usage:
//
//	pctl -server http://localhost:8341 <command> [args]
//
// Commands:
//
//	simulate -domain hiring -traces 100 [-violations 0.3] [-visibility 1.0] [-seed 1] [-async]
//	    generate process instances and ingest their application events;
//	    -async ships them through the spooling recorder (admission
//	    control, idempotent retries) instead of one synchronous POST
//	ingest [-batch 128]
//	    stream NDJSON application events from stdin through the spooling
//	    recorder (one JSON event object per line)
//	controls
//	    list deployed controls
//	deploy -id my-control -name "Title" -file rule.bal [-shadow]
//	    compile and deploy a control from a rule-text file; -shadow
//	    attaches it as a candidate evaluated silently next to the live
//	    version
//	control promote -id my-control
//	    swap a control's shadow candidate live (atomic version bump)
//	control rollback -id my-control
//	    discard a control's shadow candidate
//	remove -id my-control
//	    remove a deployed control
//	tenants [list | create -id acme [-name N] [-weight W] [-rate R -burst B] [-max-queued-bytes M] | quota -id acme -rate R ...]
//	    list tenants with quotas and admission stats, or create/retune one
//	    (the global -tenant flag scopes the other commands to a tenant)
//	check [-app trace-id]
//	    evaluate controls on one trace or all traces
//	dashboard
//	    print per-control KPIs
//	violations [-n 10]
//	    print the recent violation feed
//	rows -app trace-id
//	    print a trace's provenance rows (Table 1 of the paper)
//	graph -app trace-id [-dot]
//	    print a trace's provenance graph (or Graphviz DOT with -dot)
//	report [-findings 20]
//	    print the plain-text compliance audit report
//	segments
//	    list the store's sealed cold-tier segments with zone maps and
//	    bloom-filter stats
//	stats
//	    print /stats: every layer's counters, each number once
//	cluster [join -name N -url U | leave -name N [-force]]
//	    inspect a provrouter cluster's topology, or add/drain a shard
//	    (against provrouter, not a single provd)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/api"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pctl:", err)
		os.Exit(1)
	}
}

// run parses global flags and dispatches the subcommand. Split from main
// for testability.
func run(args []string, out io.Writer) error {
	return runIO(args, os.Stdin, out)
}

// runIO additionally injects stdin (the `ingest` command reads it).
func runIO(args []string, in io.Reader, out io.Writer) error {
	global := flag.NewFlagSet("pctl", flag.ContinueOnError)
	server := global.String("server", "http://localhost:8341", "provd base URL")
	tenantID := global.String("tenant", "", "tenant scope (X-Tenant header; empty = global operator view)")
	global.SetOutput(out)
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing command (simulate, ingest, controls, deploy, control, remove, check, dashboard, violations, rows, graph, report, segments, stats, tenants, cluster)")
	}
	c := &client{api: api.Client{Base: *server, Tenant: *tenantID}, out: out, in: in}
	cmd, cmdArgs := rest[0], rest[1:]
	ctx := context.Background()
	switch cmd {
	case "simulate":
		return c.cmdSimulate(ctx, cmdArgs)
	case "ingest":
		return c.cmdIngest(ctx, cmdArgs)
	case "controls":
		return c.cmdControls(ctx, cmdArgs)
	case "deploy":
		return c.cmdDeploy(ctx, cmdArgs)
	case "control":
		return c.cmdControl(ctx, cmdArgs)
	case "remove":
		return c.cmdRemove(ctx, cmdArgs)
	case "check":
		return c.cmdCheck(ctx, cmdArgs)
	case "dashboard":
		return c.cmdDashboard(ctx, cmdArgs)
	case "violations":
		return c.cmdViolations(ctx, cmdArgs)
	case "rows":
		return c.cmdRows(ctx, cmdArgs)
	case "graph":
		return c.cmdGraph(ctx, cmdArgs)
	case "report":
		return c.cmdReport(ctx, cmdArgs)
	case "segments":
		return c.cmdSegments(ctx, cmdArgs)
	case "stats":
		return c.cmdStats(ctx, cmdArgs)
	case "tenants":
		return c.cmdTenants(ctx, cmdArgs)
	case "cluster":
		return c.cmdCluster(ctx, cmdArgs)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}
