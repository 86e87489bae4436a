(* The compiled rule table against its record-scan oracle
   (ruledb_oracle.ml), and the allocation bound of its classify. *)

open Netstack

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)
(* ------------------------------------------------------------------ *)

(* Addresses cluster around a few bases (the sign bit included), so
   random prefixes match a useful share of random flows. *)
let ip_bases =
  [| 0x0A000000l; 0x0A000102l; 0x0B000000l; 0xC0A80001l; 0x80000000l; 0xFFFFFFFFl; 0l |]

let gen_ip =
  let open QCheck.Gen in
  frequency
    [
      (3, oneofa ip_bases);
      (3, map2 (fun b low -> Int32.logxor b (Int32.of_int low)) (oneofa ip_bases) (int_bound 1023));
      (1, map Int32.of_int (int_bound 0xFFFFFFFF));
    ]

(* [/0] and [/32] are drawn as often as every other width together. *)
let gen_prefix =
  let open QCheck.Gen in
  opt (pair gen_ip (frequency [ (1, return 0); (1, return 32); (2, int_range 0 32) ]))

let gen_port =
  let open QCheck.Gen in
  frequency
    [
      (1, return 0);
      (1, return 0xffff);
      (1, oneofl [ 1; 80; 443; 2000; 3023; 0xfffe ]);
      (2, int_bound 0xffff);
    ]

let gen_range =
  let open QCheck.Gen in
  opt
    (frequency
       [
         (1, return (0, 0xffff));
         (1, map (fun p -> (p, p)) gen_port);
         (3, map2 (fun a b -> (min a b, max a b)) gen_port gen_port);
       ])

let gen_protocol = QCheck.Gen.oneofl [ Flow.Tcp; Flow.Udp ]
let gen_action = QCheck.Gen.oneofl [ Ruledb.Accept; Ruledb.Drop ]

let gen_rule =
  let open QCheck.Gen in
  map3
    (fun (src, dst) (src_port, dst_port) (proto, action) ->
      Ruledb.rule ?src ?dst ?src_port ?dst_port ?proto action)
    (pair gen_prefix gen_prefix) (pair gen_range gen_range)
    (pair (opt gen_protocol) gen_action)

let gen_flow =
  let open QCheck.Gen in
  map3
    (fun (src_ip, dst_ip) (src_port, dst_port) protocol ->
      Flow.make ~src_ip ~dst_ip ~src_port ~dst_port ~protocol)
    (pair gen_ip gen_ip) (pair gen_port gen_port) gen_protocol

type op =
  | Add of Ruledb.rule
  | Remove of int  (** Taken modulo the rule count; a no-op on an empty table. *)
  | Set_default of Ruledb.action
  | Classify of Flow.t

let gen_op =
  let open QCheck.Gen in
  frequency
    [
      (2, map (fun r -> Add r) gen_rule);
      (1, map (fun i -> Remove i) nat);
      (1, map (fun a -> Set_default a) gen_action);
      (6, map (fun f -> Classify f) gen_flow);
    ]

let show_action = function Ruledb.Accept -> "accept" | Ruledb.Drop -> "drop"

let show_prefix = function
  | None -> "*"
  | Some (ip, bits) -> Printf.sprintf "%08lx/%d" ip bits

let show_range = function None -> "*" | Some (lo, hi) -> Printf.sprintf "%d-%d" lo hi

let show_rule (r : Ruledb.rule) =
  Printf.sprintf "{src %s dst %s sport %s dport %s proto %s -> %s}" (show_prefix r.r_src)
    (show_prefix r.r_dst) (show_range r.r_src_port) (show_range r.r_dst_port)
    (match r.r_proto with None -> "*" | Some p -> Flow.protocol_to_string p)
    (show_action r.r_action)

let show_flow (f : Flow.t) =
  Printf.sprintf "%08lx:%d -> %08lx:%d %s" f.src_ip f.src_port f.dst_ip f.dst_port
    (Flow.protocol_to_string f.protocol)

let show_op = function
  | Add r -> "add " ^ show_rule r
  | Remove i -> Printf.sprintf "remove %d" i
  | Set_default a -> "default " ^ show_action a
  | Classify f -> "classify " ^ show_flow f

type script = { default : Ruledb.action; table : Ruledb.rule list; ops : op list }

let arb_script =
  let open QCheck.Gen in
  let gen =
    map3
      (fun default table ops -> { default; table; ops })
      gen_action (list_size (int_range 0 64) gen_rule) (list_size (int_range 1 40) gen_op)
  in
  QCheck.make gen ~print:(fun s ->
      Printf.sprintf "default %s\ntable:\n  %s\nops:\n  %s" (show_action s.default)
        (String.concat "\n  " (List.map show_rule s.table))
        (String.concat "\n  " (List.map show_op s.ops)))

(* ------------------------------------------------------------------ *)
(* Differential property                                                *)
(* ------------------------------------------------------------------ *)

(* Both tables run on twin clocks, so their rule tables sit at the
   same simulated address. Every classification must agree on the
   verdict, on the cycles it charged and on the cache hits and misses
   at each level — the batched charges of the compiled scan against
   the oracle's per-rule ones. *)
let prop_matches_oracle =
  QCheck.Test.make ~name:"compiled classify = record-scan oracle (verdict, cycles, cache)"
    ~count:300 arb_script (fun s ->
      let clock = Cycles.Clock.create () and oclock = Cycles.Clock.create () in
      let db = Ruledb.create ~clock ~default:s.default () in
      let oracle = Ruledb_oracle.create ~clock:oclock ~default:s.default () in
      List.iter
        (fun r ->
          Ruledb.add db r;
          Ruledb_oracle.add oracle r)
        s.table;
      let delta clk f =
        let c0 = Cycles.Clock.now clk and k0 = Cycles.Clock.cache_counters clk in
        let a = f () in
        let k1 = Cycles.Clock.cache_counters clk in
        ( a,
          Int64.sub (Cycles.Clock.now clk) c0,
          Cycles.Cache.
            ( k1.l1_hits - k0.l1_hits,
              k1.l2_hits - k0.l2_hits,
              k1.l3_hits - k0.l3_hits,
              k1.dram_accesses - k0.dram_accesses ) )
      in
      List.iter
        (function
          | Add r ->
            Ruledb.add db r;
            Ruledb_oracle.add oracle r
          | Remove i ->
            let n = Ruledb_oracle.rule_count oracle in
            if n > 0 then begin
              Ruledb.remove db (i mod n);
              Ruledb_oracle.remove oracle (i mod n)
            end
          | Set_default a ->
            Ruledb.set_default db a;
            Ruledb_oracle.set_default oracle a
          | Classify f ->
            let got = delta clock (fun () -> Ruledb.classify db f)
            and want = delta oclock (fun () -> Ruledb_oracle.classify oracle f) in
            if got <> want then begin
              let show (a, c, (l1, l2, l3, d)) =
                Printf.sprintf "%s, %Ld cycles, cache %d/%d/%d/%d" (show_action a) c l1 l2 l3 d
              in
              QCheck.Test.fail_reportf "classify %s over %d rules: got %s, oracle %s"
                (show_flow f) (Ruledb.rule_count db) (show got) (show want)
            end)
        s.ops;
      Ruledb.rule_count db = Ruledb_oracle.rule_count oracle)

(* ------------------------------------------------------------------ *)
(* Allocation                                                           *)
(* ------------------------------------------------------------------ *)

(* Classify on E17's 768-rule wall table allocates nothing: neither a
   flow that scans every rule nor one that stops at a drop rule. *)
let test_classify_allocates_nothing () =
  let clock = Cycles.Clock.create () in
  let db = Experiments.Megaflow.rule_db ~clock ~rule_pad:Experiments.Megaflow.wall_rule_pad () in
  Alcotest.(check int) "768 rules" 768 (Ruledb.rule_count db);
  let flow src_port =
    Flow.make ~src_ip:0x0A000102l ~dst_ip:0xC0A80001l ~src_port ~dst_port:80 ~protocol:Flow.Tcp
  in
  List.iter
    (fun (what, f, want) ->
      Alcotest.(check string) what (show_action want) (show_action (Ruledb.classify db f));
      let calls = 1000 in
      let before = Gc.minor_words () in
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (Ruledb.classify db f))
      done;
      let words = Gc.minor_words () -. before in
      if words > 0. then
        Alcotest.failf "%s: classify allocated %.0f minor words over %d calls" what words calls)
    [ ("miss every rule", flow 1000, Ruledb.Accept); ("drop rule", flow 2500, Ruledb.Drop) ]

let () =
  Alcotest.run "ruledb"
    [
      ("oracle", [ Seed.to_alcotest prop_matches_oracle ]);
      ( "allocation",
        [
          Alcotest.test_case "classify on the 768-rule table allocates 0 minor words" `Quick
            test_classify_allocates_nothing;
        ] );
    ]
