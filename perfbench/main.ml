(* The repository benchmark: three workloads over the public layer functions,
   one process, one OCaml domain.

     main.exe --workload cold-oneshot|warm-iterative|serve-zipf
              --seed N --seconds S --trace 0|1

   [--trace 0] times the workload and prints every end-to-end metric;
   [--trace 1] replays one cold and one warm op per fig10 kernel plus one
   serve pass step by step, with a span around every public call, and prints
   the per-layer ledger.  The last stdout line is one JSON object
   {correct, attempted, failed, metrics}.  Every op's output is compared
   with the sequential reference kernels of [Spdistal_baselines.Common]; a
   mismatch makes the command exit 1.

   Run options are pinned in-process (one domain, faults disabled, compiled
   leaves), so SPDISTAL_* environment variables cannot change what is
   measured.  BENCHMARK.json documents the workloads and metrics. *)

open Spdistal_runtime
open Spdistal_formats
open Spdistal_ir
open Spdistal_exec
module R = Spdistal_experiments.Runner
module S = Core.Spdistal
module Trace = Spdistal_obs.Trace
module Common = Spdistal_baselines.Common
module Catalog = Spdistal_serve.Catalog
module Workload = Spdistal_serve.Workload
module Server = Spdistal_serve.Server

let domains = 1
let faults = Fault.disabled
let backend = Compile_leaf.Compiled
let nodes = 4
let cols = 32

(* Setup is repeated and its median reported. *)
let setup_reps = 5

(* A timing sample lasts at least this long: sub-ms warm iterations are
   batched up to it. *)
let min_sample_s = 0.02

(* The serve trace: Zipf popularity over the catalog, Poisson arrivals at
   140 jobs per simulated second (about 78% of the lane's capacity), 1000
   jobs per pass.  The p50/p99 of one 1000-job trace spread ~23% from seed
   to seed, so a run serves [serve_traces] traces, one pass each, and
   reports medians over them. *)
let serve_jobs = 1000
let serve_rate = 140.
let serve_traces = 12

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

let workloads = [ "cold-oneshot"; "warm-iterative"; "serve-zipf" ]

let args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. in
  let trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (> 0)");
      ("--trace", Arg.Set_int trace, "0|1 timed run or traced ledger");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown --workload " ^ !workload);
    exit 2
  end;
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "need --seed >= 0, --seconds > 0 and --trace 0|1";
    exit 2
  end;
  (!workload, !seed, !seconds, !trace = 1)

(* ------------------------------------------------------------------ *)
(* Clocks and statistics                                               *)
(* ------------------------------------------------------------------ *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs = List.sort compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [q] in (0, 1]. *)
let percentile q xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float (List.length xs))

let mean xs = List.fold_left ( +. ) 0. xs /. float (List.length xs)
let sum xs = List.fold_left ( +. ) 0. xs

(* The highest of p50/p90/p99 with at least ten samples beyond it. *)
let tail xs =
  let n = float (List.length xs) in
  List.fold_left
    (fun acc q ->
      if n *. (1. -. q) >= 10. then Some (q, percentile q xs) else acc)
    None [ 0.5; 0.9; 0.99 ]

(* Host speed reference.  On a shared 2-vCPU VM, host speed was measured
   to swing by ~1.5x every few seconds as neighbours come and go, with
   every op slowing by about the same factor, so raw medians of identical
   runs spread 20-40%.  Each timing sample is therefore bracketed by a
   fixed task of the benchmark's own and reported at the reference speed:
   raw time x [ref_nominal_s] / the mean of the two reference times.  The
   task churns short-lived lists in the minor heap, like the ops' own
   allocation, and keeps nothing alive, so the program's heap does not
   change its cost.  Raw readings are printed beside. *)
let ref_nominal_s = 0.01

let ref_samples = ref []

let reference_task () =
  let t0 = now () in
  for _ = 1 to 20 do
    let l = List.init 20_000 Fun.id in
    ignore (Sys.opaque_identity (List.fold_left ( + ) 0 (List.rev_map succ l)))
  done;
  let dt = now () -. t0 in
  ref_samples := dt :: !ref_samples;
  dt

type sample = { raw : float; norm : float  (** at the reference speed *) }

(* [f ()] on a settled heap, timed raw and at the reference speed. *)
let measure f =
  Gc.compact ();
  let r0 = reference_task () in
  let x, raw = timed f in
  let r1 = reference_task () in
  (x, { raw; norm = raw *. 2. *. ref_nominal_s /. (r0 +. r1) })

(* ------------------------------------------------------------------ *)
(* Output checks against the sequential reference kernels              *)
(* ------------------------------------------------------------------ *)

type expected =
  | Dense_out of float array
  | Sparse_out of (int array * float array)  (** coordinates, values *)

let close x y = Float.abs (x -. y) <= 1e-9 *. Float.max 1. (Float.abs y)

(* Coordinates and values of a sparse tensor in iteration order. *)
let flatten t =
  let n = Tensor.nnz t and k = Tensor.order t in
  let crd = Array.make (n * k) 0 and vals = Array.make n 0. in
  let i = ref 0 in
  Tensor.iter_nnz t (fun c _ v ->
      Array.blit c 0 crd (!i * k) k;
      vals.(!i) <- v;
      incr i);
  (Array.sub crd 0 (!i * k), Array.sub vals 0 !i)

let out_data p = (Operand.find (S.bindings p) p.S.stmt.Tin.lhs.Tin.tensor).Operand.data

let expected_output (p : S.problem) =
  let b = S.bindings p in
  let sp = Operand.find_sparse b and v = Operand.find_vec b in
  let m = Operand.find_mat b in
  let st = p.S.stmt in
  let sparse_pattern levels =
    Assemble.copy_pattern ~name:"ref" ?levels (sp "B")
  in
  if st = Tin.spmv then begin
    let y = Dense.vec_create "ref" (v "a").Dense.n in
    Common.seq_spmv (sp "B") (v "c") y;
    Dense_out y.Dense.data
  end
  else if st = Tin.spmm || st = Tin.spmttkrp then begin
    let a = m "A" in
    let e = Dense.mat_create "ref" a.Dense.rows a.Dense.cols in
    if st = Tin.spmm then Common.seq_spmm (sp "B") (m "C") e
    else Common.seq_mttkrp (sp "B") (m "C") (m "D") e;
    Dense_out e.Dense.data
  end
  else if st = Tin.spadd3 then
    let crd, vals = flatten (Common.seq_add3 ~name:"ref" (sp "B") (sp "C") (sp "D")) in
    Sparse_out (crd, vals)
  else if st = Tin.sddmm then begin
    let e = sparse_pattern None in
    Common.seq_sddmm (sp "B") (m "C") (m "D") e;
    Sparse_out (flatten e)
  end
  else if st = Tin.spttv then begin
    let e = sparse_pattern (Some 2) in
    Common.seq_spttv (sp "B") (v "c") e;
    Sparse_out (flatten e)
  end
  else failwith "reference: unsupported kernel"

let matches expected data =
  let all_close a b =
    Array.length a = Array.length b
    &&
    let ok = ref true in
    Array.iteri (fun i x -> if not (close x b.(i)) then ok := false) a;
    !ok
  in
  match (expected, data) with
  | Dense_out e, Operand.Vec v -> all_close v.Dense.data e
  | Dense_out e, Operand.Mat m -> all_close m.Dense.data e
  | Sparse_out (crd, vals), Operand.Sparse t ->
      let c, v = flatten t in
      c = crd && all_close v vals
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Kernel problems                                                     *)
(* ------------------------------------------------------------------ *)

(* One problem of the benchmark: a fig10 kernel or a catalog query. *)
type kp = {
  name : string;
  problem : S.problem;
  zero : Operand.data;  (** the output operand before any run *)
  mutable expect : expected option;
}

let kp_of name problem =
  { name; problem; zero = Operand.copy_data (out_data problem); expect = None }

let restore kp =
  (Operand.find (S.bindings kp.problem) kp.problem.S.stmt.Tin.lhs.Tin.tensor)
    .Operand.data <- Operand.copy_data kp.zero

let output_ok kp =
  let e =
    match kp.expect with
    | Some e -> e
    | None ->
        let e = expected_output kp.problem in
        kp.expect <- Some e;
        e
  in
  matches e (out_data kp.problem)

(* uk-2005's and nell-2's generator parameters (Datasets) under the given
   seed; seed 1008 reproduces both Table II analogs bit for bit. *)
let uk_seed seed = seed
let nell_seed seed = seed + 995

let synth_uk seed =
  Spdistal_workloads.Synth.power_law ~name:"uk-2005" ~rows:11_000 ~cols:11_000
    ~nnz:190_000 ~alpha:1.0 ~seed:(uk_seed seed)

let synth_nell seed =
  Spdistal_workloads.Synth.tensor3_uniform ~name:"nell-2"
    ~dims:[| 1_200; 900; 300 |] ~nnz:55_000 ~seed:(nell_seed seed)

let fig10_kernels = R.all_kernels
let kernel_names = List.map R.kernel_name fig10_kernels
let machine () = R.cpu_machine ~nodes

let synth seed = (synth_uk seed, synth_nell seed)

(* The six fig10 problems at 4 CPU nodes, with each problem's build time:
   the matrix kernels on the uk-2005 analog, the order-3 ones on nell-2. *)
let build_fig10 (uk, nell) =
  let m = machine () in
  List.map
    (fun k ->
      let b = match k with R.Spttv | R.Mttkrp -> nell | _ -> uk in
      let p, dt = timed (fun () -> R.problem_for ~kernel:k ~machine:m ~cols b) in
      (kp_of (R.kernel_name k) p, dt))
    fig10_kernels

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let account ~ops ok =
  tally.attempted <- tally.attempted + ops;
  if not ok then tally.failed <- tally.failed + ops

let run ctx = S.Context.run ~domains ~faults ~leaf_backend:backend ctx

(* A fresh context's first iteration: the cold op.  The output is restored
   first, because the leaves accumulate into it. *)
let cold_op kp =
  restore kp;
  let ctx = S.Context.create kp.problem in
  let r, dt = measure (fun () -> run ctx) in
  account ~ops:1 (r.S.dnc = None && output_ok kp);
  (ctx, dt, r)

(* Warm iterations on a context that has run, batched to [min_sample_s];
   returns the time per iteration, the iteration count and the last
   result.  Each iteration restores the output itself, so the last one's
   output is checked. *)
let warm_sample kp ctx =
  let (n, r), dt =
    measure (fun () ->
        let t0 = now () in
        let rec go n =
          let r = run ctx in
          if now () -. t0 < min_sample_s then go (n + 1) else (n, r)
        in
        go 1)
  in
  account ~ops:n (r.S.dnc = None && output_ok kp);
  let per x = x /. float n in
  ({ raw = per dt.raw; norm = per dt.norm }, n, r)

let sim_ms (r : S.run_result) = r.S.cost.Cost.total *. 1000.

(* Round-robin over [items] until [seconds] have passed (at least one
   round); [f] returns one sample. *)
let round_robin ~seconds items f =
  let t0 = now () in
  let rec go acc =
    let acc = List.map2 (fun it xs -> f it :: xs) items acc in
    if now () -. t0 < seconds then go acc else acc
  in
  go (List.map (fun _ -> []) items)

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)
(* ------------------------------------------------------------------ *)

let trace_seed seed i = seed + (7919 * i)

let gen_trace seed i =
  Workload.generate
    ~gen:
      {
        Workload.default_gen with
        g_seed = trace_seed seed i;
        g_jobs = serve_jobs;
        g_rate = serve_rate;
      }
    ~catalog:Catalog.names ()

let server_config = { Server.default_config with Server.s_faults = faults }

let force_catalog () =
  List.iter (fun e -> ignore (Lazy.force e.Catalog.c_tensor)) Catalog.all

(* One pass: a fresh server over a whole trace. *)
let serve_pass ?(trace = Trace.null) w =
  let server = Server.create server_config in
  measure (fun () -> Server.serve ~domains ~leaf_backend:backend ~trace server w)

(* Response times in ms; a job that did not complete misses every limit. *)
let response_ms (r : Server.report) =
  List.map
    (fun l ->
      match l.Server.l_outcome with
      | Server.Completed t -> t *. 1000.
      | _ -> infinity)
    r.Server.r_log

(* The simulated-clock fields of a report: equal on every pass over the
   same trace. *)
let sim_fingerprint (r : Server.report) =
  (r.Server.r_completed, r.Server.r_makespan, r.Server.r_busy, response_ms r)

let catalog_kps () =
  let m = machine () in
  List.map (fun q -> kp_of q (Catalog.problem ~machine:m q)) Catalog.names

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics

let json_number v =
  if Float.is_nan v then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "1e308"

let print_result () =
  let fields =
    List.rev_map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
      !metrics
  in
  let correct = tally.failed = 0 && tally.attempted > 0 in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.attempted tally.failed (String.concat ", " fields);
  if not correct then exit 1

let ms s = s *. 1000.
let heap_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Per-kernel diagnostic row: median, tail and sample count (not gated). *)
let diag label samples =
  let xs = List.map (fun s -> ms s.norm) samples in
  Printf.sprintf "%s %.3f ms (raw %.3f, n=%d, %s)" label (median xs)
    (ms (median (List.map (fun s -> s.raw) samples)))
    (List.length xs)
    (match tail xs with
    | Some (q, v) -> Printf.sprintf "p%g %.3f ms" (q *. 100.) v
    | None -> "tail needs >= 20 samples")

(* A host-clock metric at the reference speed; the raw reading is printed
   beside it. *)
let host_metric name unit ~raw v =
  Printf.printf "%-16s %.6g %s at reference speed (raw %.6g)\n" name v unit raw;
  metric name unit v

let med_ms f xs = List.map (fun x -> ms (median (List.map f x))) xs

(* End-to-end metrics shared by the workloads: the geomean over kernels of
   each kernel's median cold and warm time, and the geomean of [sims], the
   simulated time (ms) of the workload's ops. *)
let kernel_metrics ~cold ~warm ~sims =
  let gm f xs = geomean (med_ms f xs) in
  host_metric "cold_ms" "ms" ~raw:(gm (fun s -> s.raw) cold) (gm (fun s -> s.norm) cold);
  host_metric "warm_ms" "ms" ~raw:(gm (fun s -> s.raw) warm) (gm (fun s -> s.norm) warm);
  metric "sim_ms" "sim_ms" (geomean sims)

(* The serve_* rows of a kernel workload read its ops as a closed-loop job
   stream with one client: no queueing, so response time is the op's
   simulated time, and throughput is one round over the kernels. *)
let closed_loop_metrics ~ops ~sims =
  let n = float (List.length sims) in
  let rate f = 1000. *. n /. sum (med_ms f ops) in
  host_metric "serve_jobs_per_s" "1/s" ~raw:(rate (fun s -> s.raw)) (rate (fun s -> s.norm));
  metric "serve_p50_sim_ms" "sim_ms" (percentile 0.5 sims);
  metric "serve_p99_sim_ms" "sim_ms" (percentile 0.99 sims);
  metric "serve_goodput" "1/sim_s" (1000. *. n /. sum sims)

let finish ~setup ~ok_frac =
  host_metric "setup_s" "s"
    ~raw:(median (List.map (fun s -> s.raw) setup))
    (median (List.map (fun s -> s.norm) setup));
  Printf.printf "reference task %.3f ms (median of %d, nominal %.3f ms)\n"
    (ms (median !ref_samples)) (List.length !ref_samples) (ms ref_nominal_s);
  metric "heap_peak_mb" "MB" (heap_mb ());
  metric "ok_frac" "ratio" ok_frac;
  print_result ()

let tally_ok_frac () =
  float (tally.attempted - tally.failed) /. float (max 1 tally.attempted)

(* Every op of one kernel must bill the same simulated time. *)
let same_sim kp rs =
  match rs with
  | [] -> nan
  | r0 :: rest ->
      if List.exists (fun r -> sim_ms r <> sim_ms r0) rest then begin
        Printf.printf "simulated time of %s differs between ops\n" kp.name;
        tally.failed <- tally.failed + 1
      end;
      sim_ms r0

let print_rows names cold warm sims =
  List.iteri
    (fun i name ->
      Printf.printf "kernel %-14s %s | %s | sim %.4f ms\n" name
        (diag "cold" (List.nth cold i))
        (diag "warm" (List.nth warm i))
        (List.nth sims i))
    names

(* ------------------------------------------------------------------ *)
(* Workloads (timed, tracing off)                                      *)
(* ------------------------------------------------------------------ *)

(* Set up [setup_reps] times, keeping the last; returns it with the set-up
   times.  [check] runs after each timing, outside it. *)
let repeat_setup build check =
  let rec go i acc =
    let x, dt = measure build in
    check x;
    if i = setup_reps then (x, List.rev (dt :: acc)) else go (i + 1) (dt :: acc)
  in
  go 1 []

(* References depend only on the inputs, which every set-up rebuilds
   identically from the seed: compute each once and share it. *)
let share_expect refs kps =
  List.iter
    (fun kp ->
      match List.assoc_opt kp.name !refs with
      | Some e -> kp.expect <- Some e
      | None ->
          ignore (output_ok kp);
          refs := (kp.name, Option.get kp.expect) :: !refs)
    kps

let cold_oneshot ~seed ~seconds =
  let refs = ref [] in
  let kps, setup =
    repeat_setup
      (fun () -> List.map fst (build_fig10 (synth seed)))
      (fun kps -> share_expect refs kps)
  in
  (* Each cold op is followed by one warm sample on its context, so both
     see the same host conditions. *)
  let samples =
    round_robin ~seconds kps (fun kp ->
        let ctx, dt, r = cold_op kp in
        let w, _, _ = warm_sample kp ctx in
        (dt, w, r))
  in
  let cold = List.map (List.map (fun (dt, _, _) -> dt)) samples in
  let warm = List.map (List.map (fun (_, w, _) -> w)) samples in
  let sims = List.map2 (fun kp s -> same_sim kp (List.map (fun (_, _, r) -> r) s)) kps samples in
  print_rows kernel_names cold warm sims;
  kernel_metrics ~cold ~warm ~sims;
  closed_loop_metrics ~ops:cold ~sims;
  finish ~setup ~ok_frac:(tally_ok_frac ())

let warm_iterative ~seed ~seconds =
  let refs = ref [] in
  let cold = List.map (fun _ -> ref []) fig10_kernels in
  let (kps, ctxs), setup =
    repeat_setup
      (fun () ->
        let kps = List.map fst (build_fig10 (synth seed)) in
        let ctxs =
          List.map2
            (fun kp acc ->
              let ctx = S.Context.create kp.problem in
              let r, dt = measure (fun () -> run ctx) in
              acc := (dt, r) :: !acc;
              ctx)
            kps cold
        in
        (kps, ctxs))
      (fun (kps, _) ->
        share_expect refs kps;
        List.iter2
          (fun kp acc ->
            let r = snd (List.hd !acc) in
            account ~ops:1 (r.S.dnc = None && output_ok kp))
          kps cold)
  in
  (* Round [r] also runs kernel [r mod n]'s cold op on a fresh context, so
     cold_ms has more than the set-up's samples. *)
  let calls = ref 0 and n = List.length kps in
  let samples =
    round_robin ~seconds (List.combine (List.combine kps ctxs) cold)
      (fun ((kp, ctx), acc) ->
        let w = warm_sample kp ctx in
        let round = !calls / n and kernel = !calls mod n in
        if kernel = round mod n then begin
          let _, dt, r = cold_op kp in
          acc := (dt, r) :: !acc
        end;
        incr calls;
        w)
  in
  let warm = List.map (List.map (fun (dt, _, _) -> dt)) samples in
  let sims = List.map2 (fun kp s -> same_sim kp (List.map (fun (_, _, r) -> r) s)) kps samples in
  let cold = List.map (fun acc -> List.map fst !acc) cold in
  print_rows kernel_names cold warm sims;
  kernel_metrics ~cold ~warm ~sims;
  closed_loop_metrics ~ops:warm ~sims;
  finish ~setup ~ok_frac:(tally_ok_frac ())

let serve_zipf ~seed ~seconds =
  (* Catalog tensors are process-wide lazies, forced once: set-up is timed
     once. *)
  let (traces, probes), setup =
    measure (fun () ->
        force_catalog ();
        (Array.init serve_traces (gen_trace seed), catalog_kps ()))
  in
  let first = Array.make serve_traces None in
  let rates = ref [] and submitted = ref 0 and completed = ref 0 in
  (* A catalog probe after each pass: the miss (cold) and hit (warm) cost
     of each query, which also checks every query's output. *)
  let probe_samples = ref (List.map (fun _ -> []) probes) in
  let probe () =
    probe_samples :=
      List.map2
        (fun kp xs ->
          let ctx, dt, r = cold_op kp in
          let w, _, _ = warm_sample kp ctx in
          (dt, r, w) :: xs)
        probes !probe_samples
  in
  let t0 = now () in
  let rec go i =
    if i < serve_traces || now () -. t0 < seconds || i mod serve_traces <> 0
    then begin
      let k = i mod serve_traces in
      let r, dt = serve_pass traces.(k) in
      rates := float r.Server.r_jobs /. dt.raw :: !rates;
      submitted := !submitted + r.Server.r_jobs;
      completed := !completed + r.Server.r_completed;
      let ok =
        r.Server.r_completed = r.Server.r_jobs
        &&
        match first.(k) with
        | None ->
            first.(k) <- Some r;
            true
        | Some r0 -> sim_fingerprint r = sim_fingerprint r0
      in
      account ~ops:r.Server.r_jobs ok;
      probe ();
      go (i + 1)
    end
  in
  go 0;
  let reports = Array.to_list (Array.map Option.get first) in
  let resp = List.concat_map response_ms reports in
  let samples = !probe_samples in
  let cold = List.map (List.map (fun (dt, _, _) -> dt)) samples in
  let warm = List.map (List.map (fun (_, _, w) -> w)) samples in
  let probe_sims =
    List.map2 (fun kp s -> same_sim kp (List.map (fun (_, r, _) -> r) s)) probes samples
  in
  print_rows Catalog.names cold warm probe_sims;
  Printf.printf "serve passes %d, raw jobs/s per pass: %s\n" (List.length !rates)
    (String.concat " " (List.rev_map (Printf.sprintf "%.1f") !rates));
  List.iteri
    (fun i (r : Server.report) ->
      Printf.printf
        "trace seed %d: p50 %.3f p99 %.3f sim ms, hit rate %.3f, evictions %d, shed %d\n"
        (trace_seed seed i) r.Server.r_p50_ms r.Server.r_p99_ms
        r.Server.r_hit_rate r.Server.r_cache.Cache.evictions r.Server.r_shed)
    reports;
  kernel_metrics ~cold ~warm ~sims:resp;
  (* A pass lasts longer than the host's speed swings, so passes are
     scaled by the run's median reference time, not by their brackets. *)
  let raw = median !rates in
  host_metric "serve_jobs_per_s" "1/s" ~raw
    (raw *. median !ref_samples /. ref_nominal_s);
  (* Percentiles per pass (1000 jobs put 10 beyond p99), median over the
     traces: one bursty trace moves a pooled p99 by ~30% from seed to
     seed. *)
  let per_pass q = median (List.map (fun r -> percentile q (response_ms r)) reports) in
  metric "serve_p50_sim_ms" "sim_ms" (per_pass 0.5);
  metric "serve_p99_sim_ms" "sim_ms" (per_pass 0.99);
  metric "serve_goodput" "1/sim_s"
    (float (List.fold_left (fun a r -> a + r.Server.r_completed) 0 reports)
    /. List.fold_left (fun a r -> a +. r.Server.r_makespan) 0. reports);
  finish ~setup:[ setup ]
    ~ok_frac:(float !completed /. float (max 1 !submitted))

(* ------------------------------------------------------------------ *)
(* Traced ledger                                                       *)
(* ------------------------------------------------------------------ *)

(* A span the benchmark records around one public call; times are seconds
   since the trace's epoch, shared with the program's own host spans. *)
type bspan = { layer : string; op : string; start : float; dur : float }

let bspans : bspan list ref = ref []

let span trace ~op layer f =
  let t0 = now () in
  let r = f () in
  let dur = now () -. t0 in
  bspans := { layer; op; start = t0 -. Trace.epoch trace; dur } :: !bspans;
  r

let span_ms ~op layer =
  ms
    (sum
       (List.filter_map
          (fun b -> if b.op = op && b.layer = layer then Some b.dur else None)
          !bspans))

let gc_delta f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  let words s = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  ( r,
    (words s1 -. words s0) *. float (Sys.word_size / 8) /. 1e6,
    float (s1.Gc.major_collections - s0.Gc.major_collections) )

(* The cold op one public step at a time: digest (the cache's miss path),
   placement, lowering, partition evaluation, leaf compilation, launch. *)
let stepwise_cold trace kp =
  let op = "cold:" ^ kp.name and p = kp.problem in
  let b = S.bindings p and m = p.S.machine in
  restore kp;
  Gc.compact ();
  ignore
    (span trace ~op "exec.cache_digest" (fun () ->
         Cache.digest ~machine:m ~operands:p.S.operands ~stmt:p.S.stmt
           ~schedule:p.S.schedule));
  let stats = Part_eval.stats () in
  let placement =
    span trace ~op "exec.placement" (fun () ->
        List.map
          (fun (name, _, tdn) ->
            (name, Placement.of_tdn ~stats ~machine:m ~bindings:b name tdn))
          p.S.operands)
  in
  let prog = span trace ~op "ir.lower" (fun () -> S.compile ~trace p) in
  let prep =
    span trace ~op "exec.part_eval" (fun () ->
        Interp.prepare ~trace ~backend:Compile_leaf.Interp ~bindings:b prog)
  in
  Part_eval.accum_stats stats prep.Interp.pp_penv;
  let leaves =
    span trace ~op "exec.leaf_compile" (fun () ->
        List.map
          (function
            | Loop_ir.Distributed_for { leaf; _ } ->
                Some (Compile_leaf.compile ~bindings:b leaf)
            | _ -> None)
          prep.Interp.pp_loops)
  in
  let prep =
    { prep with Interp.pp_leaves = leaves; pp_backend = Compile_leaf.Compiled }
  in
  let launch op =
    span trace ~op "exec.launch" (fun () ->
        Interp.run ~machine:m ~bindings:b ~placement
          ~memstate:(Memstate.create m ~uvm:false)
          ~cost:(Cost.create ()) ~domains ~faults ~trace ~prepared:prep prog)
  in
  launch op;
  account ~ops:1 (output_ok kp);
  (* The warm op: the launch alone, on a restored output. *)
  restore kp;
  Gc.compact ();
  launch ("warm:" ^ kp.name);
  account ~ops:1 (output_ok kp);
  (stats, prep)

(* Leaf throughput: each compiled leaf executed over its whole tensor (the
   union of its shard partitions), in non-zeros per second. *)
let leaf_mnnz kp (prep : Interp.prepared) =
  let b = S.bindings kp.problem in
  let whole name =
    Partition.union_of_colors (Part_eval.find_partition prep.Interp.pp_penv name)
  in
  let nnz d = Tensor.nnz (Operand.find_sparse b d) in
  let work =
    List.concat
      (List.map2
         (fun stmt leaf ->
           match (stmt, leaf) with
           | Loop_ir.Distributed_for { shard_parts; leaf = l; _ }, Some cl ->
               let shard_vals t = whole (List.assoc t shard_parts) in
               let rows = Option.map whole l.Loop_ir.leaf_row_part in
               let n =
                 match l.Loop_ir.driver with
                 | Loop_ir.Sparse_driver d -> nnz d
                 | Loop_ir.Merge_driver ds -> List.fold_left (fun a d -> a + nnz d) 0 ds
               in
               Gc.compact ();
               let t0 = now () in
               let rec go k =
                 ignore (Compile_leaf.execute cl ~shard_vals ~rows ~col_range:None ());
                 let dt = now () -. t0 in
                 if dt < min_sample_s then go (k + 1) else dt /. float k
               in
               [ (float n, go 1) ]
           | _ -> [])
         prep.Interp.pp_loops prep.Interp.pp_leaves)
  in
  restore kp;
  sum (List.map fst work) /. sum (List.map snd work) /. 1e6

let dep_ops = [ "by_value_ranges"; "image_range"; "preimage_range"; "image_values" ]

(* Seconds of [iv] covered by the union of [spans] (start, end) pairs. *)
let covered (lo, hi) spans =
  let inside = List.filter (fun (s, e) -> s >= lo && e <= hi) spans in
  let merged =
    List.fold_left
      (fun acc (s, e) ->
        match acc with
        | (ps, pe) :: rest when s <= pe -> (ps, Float.max pe e) :: rest
        | _ -> (s, e) :: acc)
      [] (sorted inside)
  in
  sum (List.map (fun (s, e) -> e -. s) merged)

(* Writes every span, and prints each layer's total and self time (its
   span minus the program's host spans inside it). *)
let write_spans trace ~workload ~seed =
  let host =
    List.filter (fun s -> s.Trace.sp_clock = Trace.Wall) (Trace.spans trace)
  in
  let iv s = (s.Trace.sp_start, s.Trace.sp_start +. s.Trace.sp_dur) in
  let host_iv = List.map iv host in
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file = Printf.sprintf "%s/spans-%s-%d.jsonl" dir workload seed in
  let oc = open_out file in
  let layers = Hashtbl.create 16 in
  List.iter
    (fun b ->
      let self = b.dur -. covered (b.start, b.start +. b.dur) host_iv in
      let t, s = Option.value ~default:(0., 0.) (Hashtbl.find_opt layers b.layer) in
      Hashtbl.replace layers b.layer (t +. b.dur, s +. self);
      Printf.fprintf oc
        "{\"source\": \"bench\", \"name\": %S, \"op\": %S, \"start_ms\": %.6f, \"dur_ms\": %.6f, \"self_ms\": %.6f}\n"
        b.layer b.op (ms b.start) (ms b.dur) (ms self))
    (List.rev !bspans);
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"source\": \"program\", \"name\": %S, \"cat\": %S, \"start_ms\": %.6f, \"dur_ms\": %.6f}\n"
        s.Trace.sp_name s.Trace.sp_cat (ms s.Trace.sp_start) (ms s.Trace.sp_dur))
    host;
  close_out oc;
  Printf.printf "spans written to %s\n" file;
  Hashtbl.fold (fun l (t, s) acc -> (l, t, s) :: acc) layers []
  |> sorted
  |> List.iter (fun (l, t, s) ->
         Printf.printf "layer %-20s total %10.3f ms  self %10.3f ms\n" l (ms t) (ms s))

(* One untraced op of the ledger, with its GC deltas per iteration. *)
type obs = {
  time : sample;
  result : S.run_result;
  alloc_mb : float;
  majors : float;
}

(* What the ledger measures for one fig10 kernel. *)
type row = {
  kp : kp;
  colds : (obs * Cache.stats) list;  (** untraced cold ops, each own cache *)
  warms : obs list;  (** untraced warm samples *)
  warm_hits : int * int;  (** cache hits and lookups of [warms] *)
  traced_s : float;  (** the cold op through [Context.run] with a trace *)
  stats : Part_eval.stats;  (** the stepwise cold op's partitioning work *)
  mnnz : float;
}

let ledger_row trace kp =
  (* Untraced ops first: the base of the overhead, GC and sim rows.  Only
     the latest context stays alive. *)
  let last = ref None in
  let colds =
    List.init 3 (fun _ ->
        last := None;
        let (ctx, time, result), alloc_mb, majors = gc_delta (fun () -> cold_op kp) in
        last := Some ctx;
        ({ time; result; alloc_mb; majors }, Option.get (S.Context.cache_stats ctx)))
  in
  let ctx = Option.get !last in
  let lookups () =
    let st = Option.get (S.Context.cache_stats ctx) in
    (st.Cache.hits, st.Cache.hits + st.Cache.misses)
  in
  let h0, l0 = lookups () in
  let warms =
    List.init 3 (fun _ ->
        let (time, n, result), mb, majors = gc_delta (fun () -> warm_sample kp ctx) in
        let n = float n in
        { time; result; alloc_mb = mb /. n; majors = majors /. n })
  in
  let h1, l1 = lookups () in
  (* The same cold op traced, against the untraced ones. *)
  restore kp;
  let traced_ctx = S.Context.create kp.problem in
  Gc.compact ();
  let r, traced_s =
    timed (fun () ->
        S.Context.run ~domains ~faults ~leaf_backend:backend ~trace traced_ctx)
  in
  account ~ops:1 (r.S.dnc = None && output_ok kp);
  let stats, prep = stepwise_cold trace kp in
  {
    kp;
    colds;
    warms;
    warm_hits = (h1 - h0, l1 - l0);
    traced_s;
    stats;
    mnnz = leaf_mnnz kp prep;
  }

let ledger ~workload ~seed =
  let trace = Trace.create () in
  let (uk, nell), synth_s = timed (fun () -> synth seed) in
  let (), catalog_s = timed force_catalog in
  let w, generate_s = timed (fun () -> gen_trace seed 0) in
  let built = build_fig10 (uk, nell) in
  let rows = List.map (fun (kp, _) -> ledger_row trace kp) built in
  let (report, _), serve_mb, serve_majors = gc_delta (fun () -> serve_pass w) in
  account ~ops:report.Server.r_jobs (report.Server.r_completed = report.Server.r_jobs);
  ignore (span trace ~op:"serve" "serve.pass" (fun () -> serve_pass ~trace w));
  let each name unit f =
    List.iter (fun row -> metric (name ^ "." ^ row.kp.name) unit (f row)) rows
  in
  metric "workloads.synth_ms" "ms"
    (ms (if workload = "serve-zipf" then catalog_s else synth_s));
  List.iter
    (fun (kp, dt) -> metric ("core.problem_build_ms." ^ kp.name) "ms" (ms dt))
    built;
  let layer name l = each name "ms" (fun row -> span_ms ~op:("cold:" ^ row.kp.name) l) in
  layer "exec.cache_digest_ms" "exec.cache_digest";
  layer "exec.placement_ms" "exec.placement";
  layer "ir.lower_ms" "ir.lower";
  layer "exec.part_eval_ms" "exec.part_eval";
  each "exec.part_ops" "count" (fun row ->
      float (row.stats.Part_eval.s_parts + row.stats.Part_eval.s_dep_ops));
  each "exec.part_elems" "count" (fun row -> float row.stats.Part_eval.s_dep_elems);
  layer "exec.leaf_compile_ms" "exec.leaf_compile";
  each "exec.launch_ms" "ms" (fun row -> span_ms ~op:("warm:" ^ row.kp.name) "exec.launch");
  each "exec.leaf_mnnz_per_s" "Mnnz/s" (fun row -> row.mnnz);
  (* Dependent-partitioning operators, read from the program's "dep" host
     spans inside the stepwise cold ops' partition evaluation. *)
  let part_eval_ivs =
    List.filter_map
      (fun b -> if b.layer = "exec.part_eval" then Some (b.start, b.start +. b.dur) else None)
      !bspans
  in
  let dep_spans = List.filter (fun s -> s.Trace.sp_cat = "dep") (Trace.spans trace) in
  List.iter
    (fun d ->
      let ivs =
        List.filter_map
          (fun s ->
            if s.Trace.sp_name = d then
              Some (s.Trace.sp_start, s.Trace.sp_start +. s.Trace.sp_dur)
            else None)
          dep_spans
      in
      metric ("runtime.dep_ms." ^ d) "ms"
        (ms (sum (List.map (fun iv -> covered iv ivs) part_eval_ivs))))
    dep_ops;
  (* Cache, simulated clock and GC rows describe this workload's own ops:
     the cold ops, the warm samples, or the serve pass. *)
  let colds = List.concat_map (fun row -> row.colds) rows in
  (* A kernel op's context has its own cache: the warm ops hit the entry
     their cold op added, never evict, and peak at that entry's size. *)
  let entry_peak = List.fold_left (fun a (_, st) -> max a st.Cache.bytes_peak) 0 colds in
  let hit_rate, evictions, bytes_peak =
    match workload with
    | "cold-oneshot" ->
        let total f = List.fold_left (fun a (_, st) -> a + f st) 0 colds in
        ( float (total (fun st -> st.Cache.hits))
          /. float (total (fun st -> st.Cache.hits + st.Cache.misses)),
          total (fun st -> st.Cache.evictions),
          entry_peak )
    | "warm-iterative" ->
        let hits = List.fold_left (fun a row -> a + fst row.warm_hits) 0 rows
        and lookups = List.fold_left (fun a row -> a + snd row.warm_hits) 0 rows in
        (float hits /. float lookups, 0, entry_peak)
    | _ ->
        ( report.Server.r_hit_rate,
          report.Server.r_cache.Cache.evictions,
          report.Server.r_cache.Cache.bytes_peak )
  in
  metric "exec.cache_hit_rate" "ratio" hit_rate;
  metric "exec.cache_evictions" "count" (float evictions);
  metric "exec.cache_bytes_peak" "B" (float bytes_peak);
  metric "serve.generate_ms" "ms" (ms generate_s);
  (* Queueing is response minus service; every job completes. *)
  metric "serve.queue_wait_sim_ms" "sim_ms"
    (mean (response_ms report) -. (ms report.Server.r_busy /. float report.Server.r_completed));
  metric "serve.busy_frac" "ratio" (report.Server.r_busy /. report.Server.r_makespan);
  metric "serve.shed" "count" (float report.Server.r_shed);
  metric "serve.deadline" "count" (float report.Server.r_deadline);
  metric "serve.retries" "count" (float report.Server.r_retries);
  let gc o = (o.alloc_mb, o.majors) in
  let costs, gcs =
    match workload with
    | "cold-oneshot" ->
        ( List.map (fun row -> (fst (List.hd row.colds)).result.S.cost) rows,
          List.map (fun (o, _) -> gc o) colds )
    | "warm-iterative" ->
        ( List.map (fun row -> (List.hd row.warms).result.S.cost) rows,
          List.concat_map (fun row -> List.map gc row.warms) rows )
    | _ ->
        (* A serve job's miss path: one cold op per catalog query. *)
        let jobs = float report.Server.r_jobs in
        ( List.map (fun kp -> let _, _, r = cold_op kp in r.S.cost) (catalog_kps ()),
          [ (serve_mb /. jobs, serve_majors /. jobs) ] )
  in
  let avg f = mean (List.map f costs) in
  metric "sim.compute_ms" "sim_ms" (avg (fun c -> ms c.Cost.compute));
  metric "sim.comm_ms" "sim_ms" (avg (fun c -> ms c.Cost.comm));
  metric "sim.partitioning_ms" "sim_ms" (avg (fun c -> ms c.Cost.partitioning));
  metric "sim.bytes_moved" "B" (avg (fun c -> c.Cost.bytes_moved));
  metric "gc.alloc_mb_per_op" "MB" (mean (List.map fst gcs));
  metric "gc.major_per_op" "count" (mean (List.map snd gcs));
  each "calib.host_ms_per_sim_ms" "ratio" (fun row ->
      median (List.map (fun o -> o.time.raw) row.warms)
      /. (List.hd row.warms).result.S.cost.Cost.total);
  (* Attribution: the stepwise cold op's public steps against the untraced
     cold op, and the traced Context.run against the untraced one. *)
  let untraced =
    sum (List.map (fun row -> median (List.map (fun (o, _) -> o.time.raw) row.colds)) rows)
  in
  let steps =
    sum
      (List.concat_map
         (fun row ->
           List.filter_map
             (fun b -> if b.op = "cold:" ^ row.kp.name then Some b.dur else None)
             !bspans)
         rows)
  in
  metric "trace.unattributed_frac" "ratio" (1. -. (steps /. untraced));
  metric "trace.overhead_frac" "ratio"
    ((sum (List.map (fun row -> row.traced_s) rows) /. untraced) -. 1.);
  write_spans trace ~workload ~seed;
  print_result ()

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let workload, seed, seconds, traced = args () in
  Fault.set_default faults;
  Machine.set_sim_domains domains;
  Compile_leaf.set_backend backend;
  Printf.printf "workload %s, seeds: uk-2005 %d, nell-2 %d, serve traces %s\n%!"
    workload (uk_seed seed) (nell_seed seed)
    (String.concat "," (List.init serve_traces (fun i -> string_of_int (trace_seed seed i))));
  if traced then ledger ~workload ~seed
  else
    match workload with
    | "cold-oneshot" -> cold_oneshot ~seed ~seconds
    | "warm-iterative" -> warm_iterative ~seed ~seconds
    | _ -> serve_zipf ~seed ~seconds
