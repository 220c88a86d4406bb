// Package cpdb is a Go implementation of the copy-paste provenance system
// of Buneman, Chapman & Cheney, "Provenance Management in Curated
// Databases" (SIGMOD 2006).
//
// CPDB tracks fine-grained "dataflow" provenance for curated databases:
// databases built by hand, largely by copying data from other databases.
// Every user action — insert, delete, copy-paste — on the target database
// is intercepted by a provenance-aware editor and recorded in an auxiliary
// provenance store, as links Prov(Tid, Op, Loc, Src) relating locations in
// the target to locations in earlier versions or in external sources.
//
// The package implements all four storage strategies the paper evaluates —
// naïve, transactional, hierarchical, and hierarchical-transactional — and
// the provenance queries Src, Hist, Mod (and the federated Own), over an
// in-memory store, a from-scratch relational storage engine, or a networked
// provenance service (cmd/cpdbd) reached through the cpdb:// scheme.
//
// Beyond the paper, the store scales out: a "mem://?shards=N" or
// "sharded://" backend partitions the provenance store across independently
// locked shards (queries scatter-gather and merge), and Config.BatchSize
// group-commits appends —
// one store round trip, and for the WAL-backed relational store a constant
// fsync cost, per batch instead of per record. The defaults reproduce the
// paper's single-store behavior exactly.
//
// # Quick start
//
// The provenance database is picked by configuration: OpenBackend resolves
// a DSN ("mem://", "mem://?shards=8", "rel://prov.db?create=1&durable=1",
// "sharded://?…", "cpdb://host:7070", "replicated://?primary=…&replica=…")
// through a driver registry modeled on database/sql, and RegisterDriver
// adds third-party schemes. The cpdb:// scheme speaks to a cpdbd daemon:
// the same sessions, queries and equivalence guarantees, with the
// provenance database running as a shared network service (one HTTP round
// trip per store call). The replicated:// scheme composes any of the
// others into a replicated store: writes are acknowledged by the primary
// synchronously and log-shipped to each replica asynchronously (resuming
// after a crash from the replica's high-water {Tid, Loc} mark), and
// read=any fans reads across caught-up replicas with automatic failover
// back to the primary — a replica that lacks an acknowledged append serves
// no reads, so a session reads its own writes (DESIGN.md §4). The verified:// scheme wraps any of
// them in an RFC 6962-style Merkle history tree — a root hash per
// committed transaction, logarithmic inclusion and consistency proofs —
// making the provenance log tamper-evident: a cpdb:// client opened with
// ?verify=pin&pin=FILE pins the root on first use and proof-checks every
// record of every read against it, failing closed on any tampered,
// rolled-back or rewritten history, and replicated://?verify=1 appliers
// check shipped records the same way (DESIGN.md §8). The cpdb CLI's
// root, "prove TID LOC" and verify query verbs expose the proofs
// directly.
//
//	backend, err := cpdb.OpenBackend("rel://prov.db?create=1&durable=1")
//	s, err := cpdb.New(cpdb.Config{
//		Target:  cpdb.NewMemTarget("MyDB", nil),
//		Sources: []cpdb.Source{cpdb.NewMemSource("SwissProt", swissprotTree)},
//		Backend: backend,
//	})
//	defer s.Close() // flush buffered appends, release the store's files
//	err = s.Run(`
//		insert {ABC1 : {}} into MyDB;
//		copy SwissProt/O95477 into MyDB/ABC1/entry;
//	`)
//	tid, err := s.Commit()
//	hist, err := s.Hist(cpdb.MustParsePath("MyDB/ABC1/entry"))
//
// Queries come in two forms: the plain Session methods above, and the
// Query handle, which adds time travel, cancellation and streaming:
//
//	then, err := s.Query(cpdb.AsOf(tid)).Trace(p)       // answers as of txn tid
//	mods, err := s.Query(cpdb.WithContext(ctx)).Mod(p)  // cancellable scatter-gather
//	for rec, err := range s.Query().Records(ctx) { … }  // streamed Figure 5 table
//
// Queries can also be posed declaratively: Session.Plan (and Query.Plan /
// Query.PlanRows on the handle) parses a small query language over the
// provenance relation — selects with filters, semi-joins, ordering, limits
// and aggregates, plus the ancestry queries as language forms — and runs it
// as a compiled streaming plan with predicate pushdown into the store's
// index access paths (DESIGN.md §7). On a cpdb:// store the whole query
// ships to the daemon (POST /v1/query) and executes next to the data, so a
// multi-step trace or a mod BFS costs exactly one HTTP round trip:
//
//	res, err := s.Plan("select where loc>=MyDB/ABC1 and op=C limit 25")
//	res, err  = s.Plan("trace MyDB/ABC1/entry asof 3")
//	for row, err := range s.Query().PlanRows("select where loc>=MyDB") { … }
//
// Setting PlanQuery.Analyze (or the CLI's "plan -analyze QUERY") turns a
// plan run into EXPLAIN ANALYZE: every operator reports rows in, rows out
// and wall time in Result.Analysis, and on a cpdb:// store the analysis
// rides back as the result stream's trailer row — still one round trip.
// The deployment is observable end to end: the daemon serves Prometheus
// metrics at GET /metrics (per-endpoint latency histograms, backend-chain
// gauges, internal/provobs), logs one structured line per request under
// the client-stamped X-Cpdb-Trace-Id — the same id a failing client's
// error prints — and dumps its counters on SIGTERM (DESIGN.md §9).
// With -trace-buffer N the daemon also records distributed span traces,
// keeping the last N (internal/provtrace): every backend hop, shard leg, plan operator and
// proof check becomes a span, chained daemons continue the caller's
// trace across processes via X-Cpdb-Span-Id, and the assembled tree is
// served at GET /v1/traces/{id}, rendered by the cpdb "traces" query
// verb, and linked from /metrics latency buckets by trace-id exemplars
// (DESIGN.md §11).
//
// The read path caches adaptively, exploiting the store's append-only
// order: an answer computed at a horizon stays correct until MaxTid
// moves. A cpdb:// store opened with ?cache=SIZE memoizes whole read
// results client-side, invalidated by the client's own appends and by
// any observed horizon move (stale-until-observed; bit-exact replays
// otherwise), and the daemon's -cache-bytes and -plan-cache flags cache
// encoded scan pages and compiled plans server-side. All caches are off
// by default, export cpdb_cache_* metrics, and are bypassed entirely by
// verify=pin clients, whose answers must carry fresh proofs
// (DESIGN.md §10).
//
// Records rides the store's streaming scan path end to end: a Backend has
// one read method for more than one record, Scan(ctx, ScanSpec), and every
// scan is a pull-based cursor (iter.Seq2[Record, error]), so a full-table
// drain never materializes the relation — file-backed and remote stores
// stream a page/chunk at a time; the in-memory store walks an ordered index
// a chunk of record numbers at a time. On a cpdb:// service it costs a
// single scan round trip (the server-side GET /v1/scan cursor — /v1/scan-all
// is the same handler, kind defaulting to all — plus one GET /v1/stat read
// pinning the horizon), and it stops promptly —
// releasing locks, connections and server-side work — when the consumer
// breaks out of the loop or cancels ctx.
//
// See the examples/ directory for complete programs, DESIGN.md for the
// system inventory (§2a covers the DSN grammar and query handle), and
// EXPERIMENTS.md for the reproduction of the paper's evaluation.
package cpdb
