(* Workload definitions and their seeded input generators.

   Every workload is a trace file in the coflow-benchmark format,
   generated from the run's seed before anything is timed (gen.exe);
   the timed process only ever reads that file.

   Inputs follow the paper's evaluation pipeline (§5.1): a fixed
   calibrated base trace, then a seeded ±5 % size perturbation with a
   1 MB floor ([Workload.perturb]). The seed changes every flow size,
   so every schedule and decision digest changes with it, while the
   heavy-tailed structure (which many-to-many giants exist, their
   widths and arrival instants) stays that of the base. Re-drawing the
   whole trace per seed moves the heavy tail instead: at these input
   sizes the storm's Coflows/s varied by 0.3–0.7 (interquartile range
   over median) across seeds, more than any usable regression bound.

   The base traces use the parameters and seeds of the corresponding
   bench/main.ml sections: [synthetic_stream] (stream, admit),
   [storm_trace] (storm) and the shard section's [Synthetic.pods]
   (pods). *)

module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Units = Sunflow_core.Units
module Synthetic = Sunflow_trace.Synthetic
module Trace = Sunflow_trace.Trace
module Rng = Sunflow_stats.Rng
module Inter = Sunflow_core.Inter
module Circuit_sim = Sunflow_sim.Circuit_sim

type kind = Stream | Storm | Admit | Pods

type t = {
  name : string;
  kind : kind;
  coflows : int;  (** input size, Coflows per trace file *)
  load : float;
      (** offered load relative to the Facebook trace's arrival rate
          (526 Coflows per hour) *)
  buckets : int;  (** 0 = exact shortest-first order *)
  bucket_base : float;
  shards : int;
  shard_block : int;
  domains : int;
      (** the domain pool of the traced run and of the untimed check
          pass; timed passes run on one domain *)
  deadline_mult : float;  (** 0 = no admission control *)
}

(* the paper's fabric: 10 ms reconfiguration, 1 Gbps ports — the CLI
   defaults *)
let delta = Units.ms 10.
let bandwidth = Units.gbps 1.
let delta_us = delta *. 1e6

let all =
  [
    {
      name = "stream";
      kind = Stream;
      coflows = 3_000;
      load = 1.;
      buckets = 0;
      bucket_base = 4.;
      shards = 1;
      shard_block = 1;
      domains = 1;
      deadline_mult = 0.;
    };
    {
      name = "storm";
      kind = Storm;
      coflows = 2_030;
      load = 10.;
      buckets = 24;
      bucket_base = 2.;
      shards = 1;
      shard_block = 1;
      domains = 1;
      deadline_mult = 0.;
    };
    {
      name = "admit";
      kind = Admit;
      coflows = 4_000;
      load = 4.;
      buckets = 0;
      bucket_base = 4.;
      shards = 1;
      shard_block = 1;
      domains = 1;
      deadline_mult = 3.;
    };
    {
      name = "pods";
      kind = Pods;
      coflows = 600;
      load = 0.;
      buckets = 24;
      bucket_base = 2.;
      shards = 16;
      shard_block = 8;
      domains = 2;
      deadline_mult = 0.;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let deadline_of w =
  if w.deadline_mult <= 0. then None
  else
    Some
      (fun (c : Coflow.t) ->
        c.arrival
        +. w.deadline_mult
           *. Sunflow_core.Bounds.circuit_lower ~bandwidth ~delta c.demand)

(* [synthetic_stream]: chunks of Facebook-calibrated Coflows, each a
   fresh synthetic trace with re-based ids, shifted to start where the
   previous chunk's Poisson process ended *)
let stream ~coflows ~load =
  let chunk = 1_000 in
  let rec go i offset acc =
    let base = i * chunk in
    if base >= coflows then List.rev acc
    else begin
      let n = min chunk (coflows - base) in
      let p =
        {
          Synthetic.default_params with
          seed = 97 + i;
          n_coflows = n;
          span = 3600. *. float_of_int n /. 526. /. load;
        }
      in
      let last = ref offset in
      let acc =
        List.fold_left
          (fun acc (c : Coflow.t) ->
            let c =
              Coflow.make ~id:(base + c.id) ~arrival:(c.arrival +. offset)
                c.demand
            in
            last := c.arrival;
            c :: acc)
          acc (Synthetic.generate p).Trace.coflows
      in
      go (i + 1) !last acc
    end
  in
  { Trace.n_ports = Synthetic.default_params.n_ports; coflows = go 0 0. [] }

(* [storm_trace]: the M2M backlog at [load]x density (reducer sigma
   tamed to 2.2) interleaved at the same rate with decreasing
   single-flow mice, so under shortest-first every mouse head-inserts
   ahead of the draining backlog. Base : mice = 10,000 : 40,600. *)
let storm ~coflows ~load =
  let p = Synthetic.default_params in
  let base_n = max 1 (coflows * 10_000 / 50_600) in
  let mice_n = coflows - base_n in
  let span =
    p.span *. float_of_int base_n /. float_of_int p.n_coflows /. load
  in
  let base =
    Synthetic.generate
      {
        p with
        n_coflows = base_n;
        span;
        m2m_reducer_mb = (fst p.m2m_reducer_mb, 2.2);
      }
  in
  let rng = Rng.create 4242 in
  let mice =
    List.init mice_n (fun i ->
        let src = Rng.int rng p.n_ports in
        let dst =
          let d = Rng.int rng (p.n_ports - 1) in
          if d >= src then d + 1 else d
        in
        let mb = 64. -. (60. *. float_of_int i /. float_of_int mice_n) in
        let d = Demand.create () in
        Demand.set d src dst (Units.mb mb);
        Coflow.make ~id:(base_n + i)
          ~arrival:(span *. float_of_int i /. float_of_int mice_n)
          d)
  in
  {
    Trace.n_ports = p.n_ports;
    coflows = List.sort Coflow.compare_arrival (base.Trace.coflows @ mice);
  }

(* the shard section's pod-local storm: 16 pods x 8 ports, 0.5 %
   cross-pod stragglers, at its arrival rate (3,500 Coflows / 28 s) *)
let pods ~coflows =
  Synthetic.pods
    {
      Synthetic.default_pod_params with
      p_pods = 16;
      p_pod_size = 8;
      p_coflows = coflows;
      p_span = 28. *. float_of_int coflows /. 3_500.;
      p_cross_frac = 0.005;
      p_flow_mb = (4., 1.2);
    }

let generate ?coflows w ~seed =
  let coflows = Option.value coflows ~default:w.coflows in
  let base =
    match w.kind with
    | Stream | Admit -> stream ~coflows ~load:w.load
    | Storm -> storm ~coflows ~load:w.load
    | Pods -> pods ~coflows
  in
  Sunflow_trace.Workload.perturb ~seed base

(* the batch path, [sunflow inter]: the workload's engine config under
   [Circuit_sim.run ~replan:`Incremental], with its shard statistics *)
let sim_run ?on_complete ?shards w coflows =
  let st =
    ref { Inter.shard_steps = 0; shard_conflicts = 0; shard_rollbacks = 0 }
  in
  let r =
    Circuit_sim.run ~policy:Inter.Shortest_first ~replan:`Incremental
      ~buckets:w.buckets ~bucket_base:w.bucket_base
      ~shards:(Option.value shards ~default:w.shards)
      ~shard_block:w.shard_block ~shard_stats:st ?on_complete ~delta ~bandwidth
      coflows
  in
  (r, !st)

(* a [Serve.run] arrival stream over an in-memory list, and its
   (no-op) close *)
let list_input coflows () =
  let rest = ref coflows in
  ( (fun () ->
      match !rest with
      | [] -> None
      | c :: tl ->
        rest := tl;
        Some c),
    fun () -> () )
