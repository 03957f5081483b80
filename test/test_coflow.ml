module Coflow = Sunflow_core.Coflow
module Demand = Sunflow_core.Demand
module Units = Sunflow_core.Units

let mk flows = Coflow.make ~id:1 (Demand.of_list flows)

let test_categories () =
  let cat flows = Coflow.category (mk flows) in
  Alcotest.(check string) "O2O" "O2O"
    (Coflow.Category.to_string (cat [ ((0, 1), 1.) ]));
  Alcotest.(check string) "O2M" "O2M"
    (Coflow.Category.to_string (cat [ ((0, 1), 1.); ((0, 2), 1.) ]));
  Alcotest.(check string) "M2O" "M2O"
    (Coflow.Category.to_string (cat [ ((0, 9), 1.); ((1, 9), 1.) ]));
  Alcotest.(check string) "M2M" "M2M"
    (Coflow.Category.to_string (cat [ ((0, 2), 1.); ((1, 3), 1.) ]));
  Alcotest.check_raises "empty" (Invalid_argument "Coflow.category: empty demand")
    (fun () -> ignore (Coflow.category (Coflow.make ~id:0 (Demand.create ()))))

let test_same_port_both_sides () =
  (* a rack may appear as sender and as receiver; categories count
     distinct senders and receivers separately *)
  let c = mk [ ((3, 3), 1.) ] in
  Alcotest.(check string) "self circuit is O2O" "O2O"
    (Coflow.Category.to_string (Coflow.category c))

let test_processing_time () =
  let c = mk [ ((0, 1), Units.mb 1.) ] in
  Util.check_close "1MB @ 1Gbps = 8ms" 0.008
    (Coflow.processing_time ~bandwidth:(Units.gbps 1.) c 0 1);
  Util.check_close "p_avg" 0.008
    (Coflow.avg_processing_time ~bandwidth:(Units.gbps 1.) c)

let test_is_long () =
  let b = Units.gbps 1. and delta = Units.ms 10. in
  (* long means p_avg > 40 delta = 0.4 s = 50 MB at 1 Gbps *)
  Alcotest.(check bool) "51MB long" true
    (Coflow.is_long ~bandwidth:b ~delta (mk [ ((0, 1), Units.mb 51.) ]));
  Alcotest.(check bool) "49MB short" false
    (Coflow.is_long ~bandwidth:b ~delta (mk [ ((0, 1), Units.mb 49.) ]))

let test_compare_arrival () =
  let a = Coflow.make ~id:2 ~arrival:1. (Demand.of_list [ ((0, 1), 1.) ]) in
  let b = Coflow.make ~id:1 ~arrival:2. (Demand.of_list [ ((0, 1), 1.) ]) in
  let c = Coflow.make ~id:3 ~arrival:1. (Demand.of_list [ ((0, 1), 1.) ]) in
  Alcotest.(check bool) "earlier first" true (Coflow.compare_arrival a b < 0);
  Alcotest.(check bool) "tie by id" true (Coflow.compare_arrival a c < 0)

let test_make_validation () =
  Alcotest.check_raises "negative arrival"
    (Invalid_argument "Coflow.make: negative arrival time") (fun () ->
      ignore (Coflow.make ~id:0 ~arrival:(-1.) (Demand.create ())));
  List.iter
    (fun arrival ->
      Alcotest.check_raises "non-finite arrival"
        (Invalid_argument "Coflow.make: non-finite arrival time") (fun () ->
          ignore (Coflow.make ~id:0 ~arrival (Demand.create ()))))
    [ Float.nan; infinity; neg_infinity ]

let test_with_demand () =
  let c = mk [ ((0, 1), 4.) ] in
  let c' = Coflow.with_demand c (Demand.of_list [ ((2, 3), 8.) ]) in
  Alcotest.(check int) "same id" c.Coflow.id c'.Coflow.id;
  Util.check_close "new demand" 8. (Coflow.total_bytes c')

let suite =
  [
    Alcotest.test_case "categories" `Quick test_categories;
    Alcotest.test_case "same port both sides" `Quick test_same_port_both_sides;
    Alcotest.test_case "processing time" `Quick test_processing_time;
    Alcotest.test_case "is_long" `Quick test_is_long;
    Alcotest.test_case "compare arrival" `Quick test_compare_arrival;
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "with_demand" `Quick test_with_demand;
  ]
