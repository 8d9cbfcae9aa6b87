// Command dgfctl is the client CLI for a matrix (DfMS) server: it
// submits DGL documents, polls execution status at any granularity, and
// drives the long-run controls (pause, resume, cancel, restart).
//
// Usage:
//
//	dgfctl -addr host:7401 submit flow.xml        # synchronous
//	dgfctl -addr host:7401 submit -async flow.xml # returns an id
//	dgfctl -addr host:7401 status <id> [-detail]
//	dgfctl -addr host:7401 pause|resume|cancel <id>
//	dgfctl -addr host:7401 restart <id>
//	dgfctl -addr host:7401 metrics
//	dgfctl -addr host:7401 store                  # flow-state store shape
//	dgfctl -addr host:7401 compact                # compact the store
//	dgfctl -addr host:7401 vdata [stats]          # derivation catalog
//	dgfctl -lookup host:7400 peers                # federation roster
//	dgfctl help submit                            # per-verb detail
//
// `dgfctl help -markdown` emits the verb table embedded in README.md's
// CLI section; the two are kept in sync by regenerating the section
// from that output.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"datagridflow/internal/dgl"
	"datagridflow/internal/tenant"
	"datagridflow/internal/vdata"
	"datagridflow/internal/wire"
)

// A verb is one dgfctl subcommand. The table is the single source of
// truth for the usage screen, `dgfctl help <verb>`, and (via
// `dgfctl help -markdown`) the CLI section of README.md.
type verb struct {
	name     string
	synopsis string // argument synopsis, e.g. "submit [-async] <file.xml>"
	summary  string // one line for the usage listing and the README table
	detail   string // paragraph(s) for `dgfctl help <verb>`
}

var verbs = []verb{
	{
		name:     "submit",
		synopsis: "submit [-async] [-local] <file.xml>",
		summary:  "submit a DGL dataGridRequest document",
		detail: `Reads and validates the document, then submits it as a kind-1 wire
frame. A synchronous submit blocks until the flow completes and prints
its status tree; -async (or async="true" in the document) returns an
acknowledgement id immediately — poll it with "status". On a sharded
network any peer accepts the submit and routes it to the shard owner
(docs/FEDERATION.md); -local pins the flow to the connected server
instead. On a 1.4+ server the payload travels in the binary codec
(docs/CODEC.md); against older servers it falls back to XML
transparently.`,
	},
	{
		name:     "status",
		synopsis: "status [-detail] <id>",
		summary:  "query an execution, flow or step id",
		detail: `The id may name a whole execution, a subflow, or a single step —
status is resolved at any granularity. -detail expands the full tree
with per-step state, timing and errors. Querying a passivated
execution resurrects it transparently from the flow-state store; on a
peer network the server routes the query to the owning peer.`,
	},
	{
		name:     "pause",
		synopsis: "pause <id>",
		summary:  "suspend a running execution",
		detail: `The execution stops starting new steps; steps already in flight run
to completion. The paused state survives restarts and passivation. On
a peer network the server routes pause, resume, cancel and restart to
the owning peer, as it routes status.`,
	},
	{
		name:     "resume",
		synopsis: "resume <id>",
		summary:  "continue a paused execution",
		detail: `Clears the paused flag and lets the execution proceed from the step
it was about to run. Resuming a passivated execution resurrects it
first.`,
	},
	{
		name:     "cancel",
		synopsis: "cancel <id>",
		summary:  "stop an execution",
		detail: `The execution unwinds through its cancellation path and ends in the
cancelled state. Cancellation is terminal — use "restart" to re-run.`,
	},
	{
		name:     "restart",
		synopsis: "restart <id>",
		summary:  "re-run a failed execution, skipping succeeded steps",
		detail: `Re-submits the original document under a fresh id, seeding the
checkpoint skip-set from the failed run so already-succeeded steps are
not repeated. Prints the new id.`,
	},
	{
		name:     "list",
		synopsis: "list",
		summary:  "list the server's executions",
		detail:   `One row per tracked execution: id, flow name, state, and user.`,
	},
	{
		name:     "metrics",
		synopsis: "metrics",
		summary:  "fetch the server's metrics",
		detail: `Fetches the server's metrics (docs/METRICS.md) over the wire control
extension and prints them as the server rendered them: Prometheus text
exposition, the bytes its -metrics-addr serves at GET /metrics.`,
	},
	{
		name:     "store",
		synopsis: "store",
		summary:  "show the server's flow-state store",
		detail: `Prints the store's shape (docs/STORE.md): segment and record counts,
records written but not yet synced (pending), last-open replay cost,
live vs passivated vs resident executions, and the snapshot lag — how
many records a crash right now would replay on top of snapshots.
Reports a poisoned store's sticky failure and the pending records it
discarded.`,
	},
	{
		name:     "compact",
		synopsis: "compact",
		summary:  "compact the store segments, then report",
		detail: `Rewrites the store as one merged snapshot per live execution
(docs/STORE.md), prints the compaction summary (segments and records
before/after), then the same report as "store".`,
	},
	{
		name:     "repl",
		synopsis: "repl",
		summary:  "show the server's replication role",
		detail: `Asks a replicating server (docs/REPLICATION.md) for its
replication role: the ack mode, the store's replication sequence, each
follower's last acknowledged sequence (and so its lag), and every
source the server holds a replica for — with the replica's cursor,
live-flow count, and whether it has been promoted after its owner
died.`,
	},
	{
		name:     "owner",
		synopsis: "owner <id>",
		summary:  "resolve which peer owns a flow or execution id",
		detail: `Asks a sharded server (docs/FEDERATION.md) which peer owns
the given execution id or "user/flowName" routing key, printing the
owning peer, its address, the shard, and how it was resolved: tracked
(accepted on that peer), prefix (the id's "peer:" prefix), or ring
(consistent-hash placement of the routing key).`,
	},
	{
		name:     "tenants",
		synopsis: "tenants [limit]",
		summary:  "show the server's tenancy posture and top tenants",
		detail: `Asks a tenancy-aware server (docs/TENANCY.md) whether
tenancy and token auth are enabled, how many tenants are registered,
and the most active tenants — weight, flows in flight, store bytes and
delegation slots per row. The optional limit bounds the rows returned
(server default 20).`,
	},
	{
		name:     "vdata",
		synopsis: "vdata [stats|lookup <key>|invalidate <key-or-output>]",
		summary:  "inspect or prune the virtual-data derivation catalog",
		detail: `Talks to a virtual-data-aware server (docs/VDATA.md).
"stats" (the default) prints the catalog's shape: entry and tenant
counts, publish and invalidation totals, and whether it is durable.
"lookup" fetches one memoized derivation by its canonical key —
tenant-scoped, so the -user (or -token identity) must own the entry.
"invalidate" drops the derivation for a key or for every entry that
produced the given output path, forcing the next run to recompute;
it prints how many entries were removed.`,
	},
	{
		name:     "mint",
		synopsis: "mint <secret-file> <tenant> [ttl]",
		summary:  "mint a tenant bearer token (local, no server)",
		detail: `Purely local — no server connection. Signs a bearer token for the
tenant with the shared secret (docs/TENANCY.md), valid for ttl
(Go duration, default 1h), and prints it. Pass the token to other
verbs with -token, or to the wire API via Client.SetToken. Peers mint
their own registry credential from matrixd -tenant-auth.`,
	},
	{
		name:     "peers",
		synopsis: "peers",
		summary:  "list live peers from the -lookup server",
		detail: `Talks to the lookup registry (-lookup, not -addr) and prints each
live peer's address, liveness age, and reported load: inflight,
queued, running, capacity (docs/FEDERATION.md).`,
	},
	{
		name:     "render",
		synopsis: "render [-dot] <file.xml>",
		summary:  "render a DGL document as a tree (or DOT)",
		detail: `Purely local — no server connection. Parses the document and prints
its flow as an indented tree, or with -dot as a Graphviz digraph.`,
	},
	{
		name:     "help",
		synopsis: "help [-markdown] [verb]",
		summary:  "show usage, per-verb detail, or the README table",
		detail: `Without arguments, the usage screen. With a verb name, that verb's
synopsis and detail. With -markdown, the verb table embedded in
README.md's CLI section — regenerate the section from this output
when verbs change; the CI docs job checks every verb is listed there.`,
	},
}

func findVerb(name string) *verb {
	for i := range verbs {
		if verbs[i].name == name {
			return &verbs[i]
		}
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: dgfctl [-addr host:port] [-user name] <command> [args]\n\ncommands:\n")
	for _, v := range verbs {
		fmt.Fprintf(os.Stderr, "  %-28s %s\n", v.synopsis, v.summary)
	}
	fmt.Fprintf(os.Stderr, "\n\"dgfctl help <command>\" explains one command in detail.\n")
	os.Exit(2)
}

// verbUsage reports a bad invocation of one verb: its synopsis and
// detail, not the whole usage screen.
func verbUsage(name string) {
	v := findVerb(name)
	fmt.Fprintf(os.Stderr, "usage: dgfctl [-addr host:port] [-user name] %s\n\n%s\n", v.synopsis, v.detail)
	os.Exit(2)
}

// markdownTable renders the verb table as the GitHub-flavored markdown
// embedded in README.md's CLI section.
func markdownTable() string {
	var b strings.Builder
	b.WriteString("| verb | does |\n|---|---|\n")
	for _, v := range verbs {
		b.WriteString("| `" + v.synopsis + "` | " + v.summary + " |\n")
	}
	return b.String()
}

// extractOpt removes the first occurrence of opt from args, returning
// the remaining args and whether it was present, so a verb's option is
// accepted before or after its positional argument.
func extractOpt(args []string, opt string) ([]string, bool) {
	for i, a := range args {
		if a == opt {
			return append(append([]string{}, args[:i]...), args[i+1:]...), true
		}
	}
	return args, false
}

func runHelp(args []string) {
	args, markdown := extractOpt(args, "-markdown")
	if markdown {
		fmt.Print(markdownTable())
		return
	}
	if len(args) == 0 {
		usage()
	}
	v := findVerb(args[0])
	if v == nil {
		fmt.Fprintf(os.Stderr, "dgfctl: unknown command %q\n\n", args[0])
		usage()
	}
	fmt.Printf("usage: dgfctl [-addr host:port] [-user name] %s\n\n%s\n", v.synopsis, v.detail)
}

// session dials a matrix server and offers the -token in a hello, so a
// forged or expired token ends the command with the server's typed
// refusal instead of running it anonymously.
func session(addr, token string) *wire.Client {
	client, err := wire.Dial(addr)
	if err != nil {
		log.Fatalf("dgfctl: %v", err)
	}
	if token != "" {
		client.SetToken(token)
		if _, err := client.Hello(); err != nil {
			client.Close()
			log.Fatalf("dgfctl: %v", err)
		}
	}
	return client
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7401", "matrix server address")
	lookupAddr := flag.String("lookup", "127.0.0.1:7400", "lookup server address (peers command)")
	user := flag.String("user", "admin", "grid user for status queries")
	token := flag.String("token", "", "tenant bearer token offered on every request (mint one with \"dgfctl mint\"; docs/TENANCY.md)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	if args[0] == "help" {
		runHelp(args[1:])
		return
	}

	// render is purely local: no server connection needed.
	if args[0] == "render" {
		rest, dot := extractOpt(args[1:], "-dot")
		if len(rest) != 1 {
			verbUsage("render")
		}
		data, err := os.ReadFile(rest[0])
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		req, err := dgl.ParseRequest(data)
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		if req.Flow == nil {
			log.Fatal("dgfctl: document has no flow to render")
		}
		if dot {
			fmt.Print(dgl.Dot(req.Flow))
		} else {
			fmt.Print(dgl.Tree(req.Flow))
		}
		return
	}

	// mint is purely local: it signs a token with the shared secret.
	if args[0] == "mint" {
		if len(args) < 3 || len(args) > 4 {
			verbUsage("mint")
		}
		secret, err := tenant.LoadSecret(args[1])
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		auth, err := tenant.NewAuthority(secret)
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		ttl := time.Hour
		if len(args) == 4 {
			if ttl, err = time.ParseDuration(args[3]); err != nil {
				log.Fatalf("dgfctl: bad ttl: %v", err)
			}
		}
		tok, err := auth.Mint(args[2], ttl)
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		fmt.Println(tok)
		return
	}

	// peers talks to the lookup registry, not a matrix server.
	if args[0] == "peers" {
		if len(args) != 1 {
			verbUsage("peers")
		}
		lc, err := wire.Dial(*lookupAddr)
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		defer lc.Close()
		infos, err := lc.Peers()
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		if len(infos) == 0 {
			fmt.Println("(no live peers)")
			return
		}
		fmt.Printf("%-16s %-22s %8s %9s %7s %8s %8s\n",
			"PEER", "ADDRESS", "AGE", "INFLIGHT", "QUEUED", "RUNNING", "CAPACITY")
		for _, p := range infos {
			fmt.Printf("%-16s %-22s %7.1fs %9d %7d %8d %8d\n",
				p.Name, p.Addr, p.AgeSeconds,
				p.Load.Inflight, p.Load.Queued, p.Load.Running, p.Load.Capacity)
		}
		return
	}

	if findVerb(args[0]) == nil {
		fmt.Fprintf(os.Stderr, "dgfctl: unknown command %q\n\n", args[0])
		usage()
	}

	client := session(*addr, *token)
	defer client.Close()

	switch args[0] {
	case "submit":
		rest, async := extractOpt(args[1:], "-async")
		rest, local := extractOpt(rest, "-local")
		if len(rest) != 1 {
			verbUsage("submit")
		}
		data, err := os.ReadFile(rest[0])
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		req, err := dgl.DecodeRequest(data)
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		var opts []wire.SubmitOption
		if async {
			opts = append(opts, wire.WithAsync())
		}
		if local {
			opts = append(opts, wire.WithRoute(wire.RouteLocal))
		}
		res, err := client.Submit(context.Background(), req, opts...)
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		if serr := res.Err(); serr != nil {
			log.Fatalf("dgfctl: server: %v", serr)
		}
		if ack := res.Response.Ack; ack != nil && ack.Valid {
			fmt.Printf("accepted: id=%s status=%s\n", ack.ID, ack.Status)
			return
		}
		printStatus(res.Response.Status, 0)
	case "status":
		rest, detail := extractOpt(args[1:], "-detail")
		if len(rest) != 1 {
			verbUsage("status")
		}
		st, err := client.Status(*user, rest[0], detail)
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		printStatus(st, 0)
	case "owner":
		if len(args) != 2 {
			verbUsage("owner")
		}
		info, err := client.Owner(args[1])
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		shardCol := fmt.Sprintf("%d", info.Shard)
		if info.Shard < 0 {
			shardCol = "-"
		}
		fmt.Printf("%-16s %-22s %-6s %s\n", "PEER", "ADDRESS", "SHARD", "SOURCE")
		fmt.Printf("%-16s %-22s %-6s %s\n", info.Peer, info.Addr, shardCol, info.Source)
	case "pause", "resume", "cancel":
		if len(args) != 2 {
			verbUsage(args[0])
		}
		var err error
		switch args[0] {
		case "pause":
			err = client.Pause(args[1])
		case "resume":
			err = client.Resume(args[1])
		case "cancel":
			err = client.Cancel(args[1])
		}
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		fmt.Printf("%s: ok\n", args[0])
	case "restart":
		if len(args) != 2 {
			verbUsage("restart")
		}
		id, err := client.Restart(args[1])
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		fmt.Printf("restarted as %s\n", id)
	case "list":
		rows, err := client.List()
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		if len(rows) == 0 {
			fmt.Println("(no executions)")
			return
		}
		for _, row := range rows {
			fmt.Printf("%-24s %-20s %-10s %s\n", row.ID, row.Name, row.State, row.User)
		}
	case "metrics":
		text, err := client.Metrics()
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		if _, err := os.Stdout.Write(text); err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
	case "repl":
		info, err := client.Repl()
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		printRepl(info)
	case "tenants":
		limit := 0
		if len(args) == 2 {
			n, perr := strconv.Atoi(args[1])
			if perr != nil || n < 0 {
				verbUsage("tenants")
			}
			limit = n
		} else if len(args) > 2 {
			verbUsage("tenants")
		}
		info, err := client.Tenants(limit)
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		printTenants(info)
	case "vdata":
		sub := "stats"
		if len(args) > 1 {
			sub = args[1]
		}
		switch {
		case sub == "stats" && len(args) <= 2:
			info, err := client.VdataStats()
			if err != nil {
				log.Fatalf("dgfctl: %v", err)
			}
			printVdataStats(info)
		case sub == "lookup" && len(args) == 3:
			ent, ok, err := client.VdataLookup(*user, args[2])
			if err != nil {
				log.Fatalf("dgfctl: %v", err)
			}
			if !ok {
				fmt.Println("(no derivation for that key)")
				return
			}
			printVdataEntry(ent)
		case sub == "invalidate" && len(args) == 3:
			removed, err := client.VdataInvalidate(*user, args[2])
			if err != nil {
				log.Fatalf("dgfctl: %v", err)
			}
			fmt.Printf("invalidated: %d entry(ies) removed\n", removed)
		default:
			verbUsage("vdata")
		}
	case "store":
		info, err := client.StoreStats()
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		printStore(info)
	case "compact":
		info, err := client.Compact()
		if err != nil {
			log.Fatalf("dgfctl: %v", err)
		}
		if c := info.Compaction; c != nil {
			fmt.Printf("compacted: %d segment(s) -> 1, %d record(s) -> %d (%d dropped)\n",
				c.SegmentsBefore, c.RecordsBefore, c.RecordsKept, c.RecordsDropped)
		}
		printStore(info)
	}
}

// printRepl renders the replication role the "repl" control verb
// returns.
func printRepl(info *wire.ReplInfo) {
	fmt.Printf("mode: %s\n", info.Mode)
	fmt.Printf("seq:  %d (last durable record)\n", info.Seq)
	if len(info.Followers) == 0 {
		fmt.Println("followers: (none)")
	} else {
		fmt.Println("followers:")
		fmt.Printf("  %-16s %10s %10s\n", "PEER", "ACKED", "LAG")
		for _, f := range info.Followers {
			lag := int64(info.Seq) - int64(f.AckedSeq)
			if lag < 0 {
				lag = 0
			}
			fmt.Printf("  %-16s %10d %10d\n", f.Peer, f.AckedSeq, lag)
		}
	}
	if len(info.Sources) == 0 {
		fmt.Println("replicas held: (none)")
		return
	}
	fmt.Println("replicas held:")
	fmt.Printf("  %-16s %10s %6s %s\n", "SOURCE", "LASTSEQ", "LIVE", "PROMOTED")
	for _, s := range info.Sources {
		fmt.Printf("  %-16s %10d %6d %v\n", s.Source, s.LastSeq, s.Live, s.Promoted)
	}
}

func printTenants(info *wire.TenantsInfo) {
	onOff := func(b bool) string {
		if b {
			return "on"
		}
		return "off"
	}
	fmt.Printf("tenancy: %s  auth: %s  require: %s  registered: %d\n",
		onOff(info.Enabled), onOff(info.Auth), onOff(info.Require), info.Registered)
	if len(info.Tenants) == 0 {
		fmt.Println("(no active tenants)")
		return
	}
	fmt.Printf("%-24s %8s %8s %12s %8s\n", "TENANT", "WEIGHT", "FLOWS", "STOREBYTES", "DELEG")
	for _, t := range info.Tenants {
		fmt.Printf("%-24s %8.2f %8d %12d %8d\n",
			t.Name, t.Weight, t.Flows, t.StoreBytes, t.Delegations)
	}
}

// printVdataStats renders the catalog shape the "vdata stats"
// sub-operation returns.
func printVdataStats(info *wire.VdataInfo) {
	if !info.Enabled {
		fmt.Println("vdata: disabled (no derivation catalog attached)")
		return
	}
	durable := "memory-only"
	if info.Durable {
		durable = "durable"
	}
	fmt.Printf("vdata: enabled (%s)\n", durable)
	fmt.Printf("entries:       %d\n", info.Entries)
	fmt.Printf("tenants:       %d\n", info.Tenants)
	fmt.Printf("publishes:     %d\n", info.Publishes)
	fmt.Printf("invalidations: %d\n", info.Invalidations)
}

// printVdataEntry renders one memoized derivation from "vdata lookup".
func printVdataEntry(ent *vdata.Entry) {
	fmt.Printf("key:     %s\n", ent.Key)
	fmt.Printf("tenant:  %s\n", ent.Tenant)
	fmt.Printf("op:      %s\n", ent.Op)
	if len(ent.Inputs) > 0 {
		fmt.Printf("inputs:  %s\n", strings.Join(ent.Inputs, ", "))
	}
	if len(ent.Params) > 0 {
		keys := make([]string, 0, len(ent.Params))
		for k := range ent.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("param:   %s=%s\n", k, ent.Params[k])
		}
	}
	if len(ent.Outputs) > 0 {
		fmt.Printf("outputs: %s\n", strings.Join(ent.Outputs, ", "))
	}
	if ent.Result != "" {
		fmt.Printf("result:  %s\n", ent.Result)
	}
	if ent.Peer != "" {
		fmt.Printf("peer:    %s\n", ent.Peer)
	}
	if ent.Unix > 0 {
		fmt.Printf("derived: %s\n", time.Unix(ent.Unix, 0).UTC().Format(time.RFC3339))
	}
}

// printStore renders the store summary the "store"/"compact" control
// verbs return.
func printStore(info *wire.StoreInfo) {
	fmt.Printf("segments:       %d\n", info.Segments)
	fmt.Printf("records:        %d\n", info.Records)
	fmt.Printf("pending:        %d record(s) written, not yet synced\n", info.Pending)
	fmt.Printf("replay records: %d (last open)\n", info.ReplayRecords)
	fmt.Printf("live:           %d\n", info.Live)
	fmt.Printf("passivated:     %d\n", info.Passivated)
	fmt.Printf("resident:       %d\n", info.Resident)
	fmt.Printf("snapshot lag:   %d record(s)\n", info.SnapshotLag)
	if info.Failed != "" {
		fmt.Printf("FAILED:         %s (store rejects appends; restart matrixd)\n", info.Failed)
	}
}

func printStatus(st *dgl.FlowStatus, depth int) {
	if st == nil {
		fmt.Println("(no status)")
		return
	}
	fmt.Printf("%s%s\n", strings.Repeat("  ", depth), st.Summary())
	for i := range st.Children {
		printStatus(&st.Children[i], depth+1)
	}
}
