// Command mhla-bench is the end-to-end benchmark of the MHLA service:
// it drives named workloads against an in-process internal/server on a
// loopback port, checks every response byte for byte against a
// reference computed through pkg/mhla before the timed phase, and
// prints each metric as "name value unit". A traced run breaks the
// same operations down layer by layer.
//
// The paper's result is a thorough trade-off exploration over memory
// layer sizes; how many applications, sizes and exact searches a
// designer can afford depends on how fast the tool answers, so tool
// speed is what this benchmark measures.
//
// # Commands
//
// Untraced run of one workload (or all four), with an -out file that
// also records the host:
//
//	go run . -workload run-paper -seed 1 -seconds 30 -out a1.json
//	go run . -workload all -out a1.json
//
// Traced run: per-layer metrics instead of end-to-end ones, spans
// written as a JSON array of {name, id, parent, request_id, start_ns,
// end_ns, attrs}:
//
//	go run . -workload run-churn -trace 1 -spans spans.json
//
// Comparison of a baseline's runs (A) with a change's (B), one row per
// workload and end-to-end metric with each side's median and
// quartiles, the bound and a verdict:
//
//	go run . compare a1.json,a2.json,a3.json b1.json,b2.json,b3.json
//
// These commands run from this directory, which is a module of its own
// (go.mod replaces mhla with the repository root); `go test` here runs
// the unit tests and a smoke run of every workload (-smoke: about half
// a second each, short stretches, simulate on test-scale apps). From the
// repository root, bench.sh builds the tool offline into .bench_build
// and runs it with the given flags:
//
//	bash cmd/mhla-bench/bench.sh --workload simulate --seed 3 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics listed in BENCHMARK.json — the
// end-to-end ones untraced, the per-layer ones traced.
//
// # Load
//
// The load runs in this process with at most one HTTP connection and
// one closed-loop client per CPU, and GOMAXPROCS at its default. The
// seed derives every pick order, Zipf deck order, job priority and
// tenant; the server only sees the generated request bodies. The
// request pools themselves are fixed, so that runs with different
// seeds differ in order and timing, not in which programs make up the
// mix: their costs are uneven enough that a seed-dependent pool would
// decide the numbers.
//
// The timed phase is a series of slices, each a sequential stretch and
// then a closed-loop one. A sequential stretch keeps one operation in
// flight and gives the latencies. A closed-loop stretch runs one client
// per CPU, each sending its next request once the last is verified
// (sweep-jobs: one client keeping a batch of 8 jobs in flight), and
// gives the throughput. A stretch takes whole passes of the workload's
// mix and starts passes for half a second, so it holds the mix exactly
// whatever its operations cost; before it starts, the benchmark
// collects the garbage the last stretch left and reads the host's
// speed, and after a closed-loop stretch it reads it again (see Host
// speed). A slice starts only while one as long as the longest so far
// still fits in the run.
//
// There is no open loop. One at 300 and 600 requests/s, timed from each
// request's due time, was tried first: on the shared host a stall of a
// few milliseconds queued every request behind it, and between runs of
// the same code median and p99 latency moved by far more than 25%.
// Sequential latency has no queue to amplify a stall, and closed-loop
// throughput still shows the server with every CPU busy.
//
// # Workloads
//
//   - run-paper: synchronous POST /v1/run of the nine paper
//     applications by catalog name at L1/2, L1 and 2*L1 (27 bodies, a
//     pass in a fresh seeded order). This is the paper's flow at the
//     paper's sizes: greedy assign and garbage collection dominate,
//     qsdpcm (about 6 ms against at most 1 ms for the others) sets the
//     tail, and each request allocates about 1 MB.
//   - run-churn: synchronous POST /v1/run with inline program and
//     platform JSON: the 512 scenarios of progen's default
//     configuration with Zipf(1) popularity against the server's
//     64-entry workspace cache (a little over half hit). A deck of 4096
//     Zipf draws, every program at least once, is dealt over and over,
//     each time in a fresh seeded order; a pass is a quarter of a deck,
//     so a stretch holds the mix to within a quarter deck and the run to
//     within one. The programs are tiny, so time goes to HTTP, strict
//     decoding, the canonical digest, compilation and LRU churn; the
//     engines are bypassed.
//   - sweep-jobs: asynchronous POST /v1/jobs of exact sweeps (engine
//     bnb, max_states 10M, the default 17-point ladder) over the first
//     16 larger progen scenarios with a decision space of at least
//     1e5, a pass in pool order. Jobs carry seeded priorities over two
//     X-API-Key tenants; a closed-loop batch of 8 (one half of the
//     pool) has priorities 0-7. Each job is polled every 2 ms until
//     done and its result fetched and verified before the client moves
//     on. Persistence is on: setup primes a server with a
//     snapshot directory, closes it and boots the measured server on the
//     snapshot, waiting for its rewarm, and every job transition is
//     journaled. Finished jobs are kept for 2 s, not the default 15
//     minutes, so the retained set does not grow with the jobs a run
//     completes. This exercises the explore warm-start chain, parallel
//     BnB, the job priority queue and the persist journal; the
//     synchronous path is unused.
//   - simulate: synchronous POST /v1/simulate of five paper-scale
//     applications (qsdpcm, wavelet, durbin, voice, dab; 0.5 to 0.9
//     million accesses each) through four cache configurations: no
//     cache (the anchor, "levels": []), LRU derived from the platform,
//     and LRU with next-line or stride prefetch (8 entries, latency 4).
//     cachesim and trace are nearly all of its time and no other
//     workload reaches them; the anchor separates the trace walk from
//     the cache model. me, jpeg and cavity (8 to 15 million accesses)
//     and sobel (3.1 million) are left out: sobel alone took half of a
//     pass, and with all four a pass cost about 20 CPU-seconds, too few
//     passes a run for its medians to settle.
//
// # End-to-end metrics
//
//	name              unit    better  bound                        in BENCHMARK.json
//	setup_s           s       lower   +25% (compare: or +0.05 s)   yes
//	latency_ms        ms      lower   +25%                         yes
//	latency_p50_ms    ms      lower   +25%
//	latency_p90_ms    ms      lower   +25%                         yes
//	latency_p99_ms    ms      lower   +25%
//	throughput_ops_s  ops/s   higher  -25%                         yes
//	sim_macc_s        Macc/s  higher  -25%  (simulate only)
//	heap_mb           MB      lower   +25%
//	error_pct         %       lower   +0
//
// The bounds are what the host allows, not what a change should be
// held to. On a 2-CPU share of a busy machine, running 1.3 to 2.2 times
// slower than nominal, sets of ten 30-second runs per workload with
// different seeds left quartile spreads, over the median, of 1 to 8%
// for latency_ms and latency_p90_ms, 3 to 6% for throughput_ops_s and
// 4 to 7% for setup_s, and the medians of two consecutive sets
// differed by at most 5%; the raw values spread 8 to 31%. A change that
// moves a metric by less than its bound is best judged with compare
// over more runs of both commits, alternated. BENCHMARK.json lists the
// metrics that every workload reports, that are never 0 and that held
// well within their bound between runs; the others are printed and
// recorded in -out files, and the failure count is in the result line. latency_p50_ms and
// latency_p99_ms fall between the costs of two operations on the
// sweep-jobs and simulate pools and jumped with them, and p99 has too
// few samples beyond it there. heap_mb depends on more than the code:
// run-churn's is the size of whichever 64 programs the draws left
// cached, sweep-jobs' holds the jobs finished in the last 2 s and so
// follows the host's speed, and between runs of the same code it moved
// by 12 to 23%.
//
// Times and rates are in nominal-host units (see Host speed below); the
// printed lines and -out files also carry the raw values.
//
// setup_s is the median of fifteen boots, each timed from server.New
// until the server is ready for timed traffic: priming requests
// answered and, for sweep-jobs, the rebooted server's rewarm done.
// Building inputs and references comes earlier and is not counted.
//
// Latency is that of one operation in flight, from the send to the
// last byte read and verified, over the sequential stretches.
// latency_ms is the typical operation's latency: each operation's
// median, averaged over the mix. The costs in a pool differ up to a
// hundredfold, so the pooled median falls in the gap between two
// operations' costs and jumps between them from run to run; per
// operation, a median keeps a moment the host stalled out of it.
// Percentiles are nearest rank over the pooled latencies and need at
// least 10 samples beyond them: p90 holds on every workload (simulate
// has the fewest samples, a hundred or more a run), p99 only where n >=
// 1000; below that the printed line says it is omitted and why (the
// sample count is always printed).
//
// Throughput counts verified completions per second of the closed-loop
// stretches, each from its start until its mix ran dry. An operation is
// a request, a sweep job or a replay; a replay counts as its trace
// length over the pool's mean. sim_macc_s is the same rate in demand
// accesses.
//
// heap_mb is the median of the live heap (/gc/heap/live:bytes, what
// the latest collection found reachable), sampled every 10 ms over the
// timed phase. The heap in use is a sawtooth whose top depends on when
// each collection starts, and its maximum varied by half between runs
// of the same inputs; the live heap steps only as the retained state —
// caches, jobs, connections — changes. error_pct is failed over
// attempted operations; transport errors, non-2xx responses, 429
// sheds, timeouts and byte mismatches all fail.
//
// # Traced run and per-layer metrics
//
// A traced run spends a quarter of its time on the untraced load, for
// the counters the system exposes anyway (server and persistence
// stats, job envelope timestamps, runtime/metrics), and the rest on
// sequential passes over a seeded sample of the pool, one operation in
// flight: 200 requests for the run
// workloads, 32 jobs, every replay. Untraced and traced passes
// alternate. A traced pass first sends every loopback request
// (root span http.request), then for each operation sends the same
// body through srv.Handler().ServeHTTP into a recorder (server.handler)
// and calls the facade directly, one rung per layer: DecodeProgram and
// DecodePlatform, ProgramDigest, Compile, Run with WithWorkspace and
// WithProgress, Search on the workspace's analysis, Extend, Evaluate,
// ResultJSON or Sweep.JSON, SweepL1, Simulate. Spans inside a request
// are cut at the server's Config.OnCompile and Config.Progress phase
// entries. Allocation counts are runtime.MemStats.Mallocs deltas
// around rungs. A span's self time is its duration minus the union of
// its children's intervals.
//
// A layer a workload does not reach reports 0. Each per-layer metric,
// and the end-to-end metric and workload it should move:
//
//	http.overhead_us         loopback - handler, warm, p50      latency_ms @ run-churn
//	server.self_us           handler time outside in-situ spans
//	                         and the decode, digest, evaluate,
//	                         encode, sweep and simulate rungs   latency_ms, throughput_ops_s @ run-churn
//	server.cache_hit_pct     workspace cache hits               throughput_ops_s @ run-churn
//	server.compiles          workspace compiles                 throughput_ops_s @ run-churn
//	server.in_flight_max     compute slots held, 10 ms samples  latency_p90_ms @ run-paper
//	modelio.decode_us        decode rung                        latency_ms @ run-churn
//	modelio.digest_us        digest rung                        latency_ms @ run-churn
//	workspace.compile_us     compile rung                       latency_ms @ run-churn; setup_s @ run-paper
//	core.assign_us           in-situ assign phase               latency_p90_ms, throughput_ops_s @ run-paper
//	core.extend_us           in-situ extend phase               latency_p90_ms, throughput_ops_s @ run-paper
//	core.evaluate_us         evaluate rung                      latency_p90_ms, throughput_ops_s @ run-paper
//	assign.greedy_us.<app>   search rung per paper app          latency_p90_ms (qsdpcm), throughput_ops_s @ run-paper
//	assign.allocs_per_search search rung allocations            throughput_ops_s, heap_mb @ run-paper
//	assign.bnb_states_per_sweep  states summed over points      throughput_ops_s @ sweep-jobs
//	te.extend_us             extend rung                        latency_ms @ run-paper
//	explore.sweep_ms         sweep rung                         latency_ms, throughput_ops_s @ sweep-jobs
//	mhla.encode_us           encode rung                        latency_ms @ run-churn, sweep-jobs
//	jobs.submit_us           202 round trip, journal included   latency_ms @ sweep-jobs
//	jobs.queue_wait_ms       started - created, p50             latency_p90_ms @ sweep-jobs
//	jobs.queue_wait_p99_ms   started - created, p99             latency_p90_ms @ sweep-jobs
//	jobs.run_ms              finished - started, p50            latency_ms @ sweep-jobs
//	jobs.polls_per_job       status polls per job               throughput_ops_s @ sweep-jobs
//	persist.rewarm_ms        reboot until rewarm done           setup_s @ sweep-jobs
//	persist.journal_errors   failed journal appends             error_pct @ sweep-jobs
//	cachesim.macc_s.<cfg>    simulate rung accesses per second  sim_macc_s @ simulate
//	cachesim.allocs_per_replay.<cfg>  simulate rung allocations sim_macc_s @ simulate
//	runtime.alloc_kb_per_op  heap bytes allocated per op        throughput_ops_s, latency_p90_ms @ run-paper
//	runtime.gc_cpu_pct       GC share of CPU time               throughput_ops_s, latency_p90_ms @ run-paper
//	trace.overhead_pct       traced vs untraced root p50        validity of the traced numbers
//
// # Host speed
//
// The host the bounds were set on gives the benchmark two CPUs of a
// shared machine, and neighbours move their speed by tens of percent
// within seconds: a register-only kernel's CPU time stayed within 0.3%
// while a map-and-JSON kernel's swung between 10 and 19 ms in spells of
// a few seconds, and one set of runs found the host twice as slow as
// another an hour earlier. Before every boot of the setup and every
// stretch of the timed phase, with its own load idle, the benchmark
// therefore reads two yardsticks (calib.go): the wall time of a
// register-only kernel, which sees the CPU time other processes take,
// and the CPU time of round trips to a reference JSON service on
// loopback built from the standard library alone (reference.go), which
// sees how much slower allocation-heavy, branchy code like the server's
// runs while neighbours contend for the cores and caches. A reading's
// slowdown is the geometric mean of the two slowdowns, the
// reference's weighted three quarters and the kernel's one quarter. A
// sequential stretch's times are divided by the reading before it; a
// closed-loop stretch's rate is multiplied by the geometric mean of the
// readings before and after it. The weights are measured, not derived:
// calib.go gives the spreads the alternatives left. The host's speed
// changes from one op to the
// next, faster than a reading every half second follows; where ops are
// about as short as a reference round trip (run-paper, run-churn), a
// sequential stretch therefore sends one round trip before every op and
// one after the last, and divides each op's latency by the geometric
// mean of the wall times of the two round trips around it, over
// nominal. Over ten runs per workload, this left a spread of latency_ms
// of 2 to 3% on those two workloads, against 3.5 to 8.5% with a reading
// per stretch; on sweep-jobs and simulate, whose ops last tens of
// milliseconds, two round trips say little about the time between them,
// and a reading per stretch did better (2.5 and 6.6% against 6.6 and
// 9.7%). The header line prints the run's median slowdown, and the raw
// values stay in the printed lines and -out files. Neither yardstick shares code with the repository, so no
// change under test can move them.
//
// # Why not mhla-loadgen
//
// mhla-loadgen records the serving layer's behaviour for BENCH_JOBS.json
// and BENCH_PERSIST.json, but its numbers cannot gate a change: it
// times latency from the send, so a stall hides the wait it imposes on
// later requests; it takes percentiles by floor index, which
// understates them; it runs 8 clients on a 2-CPU host; and it never
// checks a response, so a fast wrong answer counts as a success.
package main
