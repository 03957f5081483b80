(* gen.exe --workload W --seed N --out FILE

   Writes the workload's seeded input as a coflow-benchmark trace file
   and prints one JSON line describing it: seed, Coflow, flow and byte
   counts, arrival span and the file's MD5. Runs as its own process so
   no generator state is resident while the program is measured. *)

module Trace = Sunflow_trace.Trace
module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand

let () =
  let workload = ref "" and seed = ref 0 and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--out", Arg.Set_string out, "FILE trace file to write");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "gen.exe --workload W --seed N --out FILE";
  let w =
    match Perfbench_wl.Wl.find !workload with
    | Some w -> w
    | None ->
      prerr_endline ("gen: unknown workload " ^ !workload);
      exit 2
  in
  if !out = "" then begin
    prerr_endline "gen: --out is required";
    exit 2
  end;
  let trace = Perfbench_wl.Wl.generate w ~seed:!seed in
  Trace.save !out trace;
  let cs = trace.Trace.coflows in
  let flows =
    List.fold_left (fun a (c : Coflow.t) -> a + Demand.n_flows c.demand) 0 cs
  in
  let first, last =
    List.fold_left
      (fun (lo, hi) (c : Coflow.t) -> (Float.min lo c.arrival, Float.max hi c.arrival))
      (infinity, neg_infinity) cs
  in
  Printf.printf
    "{\"workload\": %S, \"seed\": %d, \"coflows\": %d, \"flows\": %d, \
     \"bytes\": %.17g, \"arrival_span_s\": %.17g, \"md5\": %S}\n"
    w.name !seed (List.length cs) flows (Trace.total_bytes trace)
    (if cs = [] then 0. else last -. first)
    (Digest.to_hex (Digest.file !out))
