(* The benchmark's own equivalence tests, on short seeded inputs that
   went through the trace file format exactly as the benchmark's do:

   - stream and storm: [Serve.run]'s decisions are bit-identical to
     [Circuit_sim.run ~replan:`Incremental] with the same buckets;
   - pods: the 16-shard replay on a 2-domain pool is bit-identical to
     its 1-shard sequential replay. *)

module Wl = Perfbench_wl.Wl
module Trace = Sunflow_trace.Trace
module Serve = Sunflow_serve.Serve
module Sim_result = Sunflow_sim.Sim_result

let seed = 3
let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let input name coflows =
  let w = Option.get (Wl.find name) in
  (w, (Trace.parse (Trace.to_string (Wl.generate ~coflows w ~seed))).Trace.coflows)

let serve_matches_batch name coflows =
  let w, cs = input name coflows in
  let finishes = ref [] in
  let next, _ = Wl.list_input cs () in
  let st =
    Serve.run ~buckets:w.buckets ~bucket_base:w.bucket_base
      ~on_finish:(fun ~id ~t ~cct:_ -> finishes := (id, t) :: !finishes)
      ~delta:Wl.delta ~bandwidth:Wl.bandwidth next
  in
  let r, _ = Wl.sim_run ~shards:1 w cs in
  let served = List.sort (fun (a, _) (b, _) -> compare a b) !finishes in
  expect
    (Printf.sprintf "%s: Serve.run = Circuit_sim.run `Incremental (%d Coflows)"
       name (List.length cs))
    (served = r.Sim_result.finishes
    && st.Serve.setups = r.Sim_result.total_setups
    && st.Serve.makespan = r.Sim_result.makespan)

let pods_shards_match_sequential coflows =
  let w, cs = input "pods" coflows in
  Sunflow_parallel.Pool.set_jobs (Some w.domains);
  let sharded, _ = Wl.sim_run w cs in
  let single, _ = Wl.sim_run ~shards:1 w cs in
  Sunflow_parallel.Pool.shutdown (Sunflow_parallel.Pool.get ());
  expect
    (Printf.sprintf "pods: %d shards on %d domains = 1 shard (%d Coflows)"
       w.shards w.domains (List.length cs))
    (sharded = single)

let () =
  serve_matches_batch "stream" 300;
  serve_matches_batch "storm" 300;
  pods_shards_match_sequential 400;
  if !failures > 0 then exit 1
