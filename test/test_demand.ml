module Demand = Sunflow_core.Demand
module Units = Sunflow_core.Units

let checkf = Alcotest.(check (float 1e-6))

let sample () =
  Demand.of_list
    [ ((0, 5), 10.); ((0, 6), 20.); ((1, 5), 5.); ((2, 7), 1.) ]

let test_get_set () =
  let d = Demand.create () in
  checkf "absent" 0. (Demand.get d 3 4);
  Demand.set d 3 4 7.;
  checkf "set" 7. (Demand.get d 3 4);
  Demand.set d 3 4 0.;
  checkf "zero removes" 0. (Demand.get d 3 4);
  Alcotest.(check int) "empty again" 0 (Demand.n_flows d);
  Alcotest.check_raises "negative port" (Invalid_argument "Demand: negative port id")
    (fun () -> Demand.set d (-1) 0 1.);
  let non_finite = Invalid_argument "Demand: non-finite byte count" in
  List.iter
    (fun v ->
      Alcotest.check_raises "set non-finite" non_finite (fun () ->
          Demand.set d 0 1 v);
      Alcotest.check_raises "add non-finite" non_finite (fun () ->
          Demand.add d 0 1 v);
      Alcotest.check_raises "of_list non-finite" non_finite (fun () ->
          ignore (Demand.of_list [ ((0, 1), v) ] : Demand.t)))
    [ Float.nan; infinity; neg_infinity ];
  Demand.set d 0 1 Float.max_float;
  Alcotest.check_raises "add overflowing to infinity" non_finite (fun () ->
      Demand.add d 0 1 Float.max_float);
  checkf "failed add leaves the entry" Float.max_float (Demand.get d 0 1)

let test_of_list_accumulates () =
  let d = Demand.of_list [ ((1, 2), 3.); ((1, 2), 4.); ((0, 0), -5.) ] in
  checkf "accumulated" 7. (Demand.get d 1 2);
  Alcotest.(check int) "dropped non-positive" 1 (Demand.n_flows d)

let test_drain () =
  let d = sample () in
  Demand.drain d 0 5 4.;
  checkf "partial" 6. (Demand.get d 0 5);
  Demand.drain d 0 5 100.;
  checkf "clamped at zero" 0. (Demand.get d 0 5);
  Alcotest.(check int) "entry removed" 3 (Demand.n_flows d)

let test_aggregates () =
  let d = sample () in
  Alcotest.(check int) "flows" 4 (Demand.n_flows d);
  checkf "total" 36. (Demand.total_bytes d);
  checkf "row 0" 30. (Demand.row_sum d 0);
  checkf "col 5" 15. (Demand.col_sum d 5);
  Alcotest.(check (list int)) "senders" [ 0; 1; 2 ] (Demand.senders d);
  Alcotest.(check (list int)) "receivers" [ 5; 6; 7 ] (Demand.receivers d);
  Alcotest.(check int) "max port" 7 (Demand.max_port d);
  Alcotest.(check int) "max port empty" (-1) (Demand.max_port (Demand.create ()))

let test_entries_sorted () =
  let d = sample () in
  let keys = List.map fst (Demand.entries d) in
  Alcotest.(check (list (pair int int)))
    "sorted" [ (0, 5); (0, 6); (1, 5); (2, 7) ] keys

let test_scale_map_copy () =
  let d = sample () in
  let s = Demand.scale 2. d in
  checkf "scaled" 20. (Demand.get s 0 5);
  checkf "original untouched" 10. (Demand.get d 0 5);
  let m = Demand.map (fun _ _ v -> v -. 5.) d in
  checkf "mapped" 5. (Demand.get m 0 5);
  Alcotest.(check int) "non-positive dropped by map" 2 (Demand.n_flows m);
  let c = Demand.copy d in
  Demand.set c 0 5 99.;
  checkf "copy is deep" 10. (Demand.get d 0 5);
  Alcotest.check_raises "bad scale"
    (Invalid_argument "Demand.scale: non-positive factor") (fun () ->
      ignore (Demand.scale 0. d))

let test_to_dense () =
  let d = sample () in
  let ports, m = Demand.to_dense d in
  Alcotest.(check (list int)) "port universe" [ 0; 1; 2; 5; 6; 7 ]
    (Array.to_list ports);
  checkf "entry mapped" 10. m.(0).(3);
  (* 0 -> index 0, 5 -> index 3 *)
  checkf "dense total" 36. (Sunflow_matching.Dense.total m)

let test_equal () =
  let a = sample () and b = sample () in
  Alcotest.(check bool) "equal" true (Demand.equal a b);
  Demand.set b 9 9 1.;
  Alcotest.(check bool) "extra entry" false (Demand.equal a b)

let prop_total_nonneg =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"drain never leaves negative entries" ~count:200
       QCheck2.Gen.(pair (Util.Gen.nonempty_demand ()) (float_range 0. 1e9))
       (fun (d, amount) ->
         List.iter (fun ((i, j), _) -> Demand.drain d i j amount) (Demand.entries d);
         List.for_all (fun (_, v) -> v > 0.) (Demand.entries d)
         && Demand.total_bytes d >= 0.))

let suite =
  [
    Alcotest.test_case "get set remove" `Quick test_get_set;
    Alcotest.test_case "of_list accumulates" `Quick test_of_list_accumulates;
    Alcotest.test_case "drain" `Quick test_drain;
    Alcotest.test_case "aggregates" `Quick test_aggregates;
    Alcotest.test_case "entries sorted" `Quick test_entries_sorted;
    Alcotest.test_case "scale map copy" `Quick test_scale_map_copy;
    Alcotest.test_case "to_dense" `Quick test_to_dense;
    Alcotest.test_case "equal" `Quick test_equal;
    prop_total_nonneg;
  ]
