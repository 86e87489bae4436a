(* A wall-clock bound for fuzz properties: a decoder or parser that
   loops on some input fails its case instead of hanging the suite. *)

exception Hang

(* Runs [f], raising [Hang] if it takes more than [seconds]. *)
let within seconds f =
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Hang)) in
  ignore (Unix.alarm seconds);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm old)
    f
