type t = { name : string; allows : caller:Domain_id.t -> slot:int -> bool }

let allows t = t.allows

let allow_all = { name = "allow-all"; allows = (fun ~caller:_ ~slot:_ -> true) }

let allow_callers ids =
  {
    name = "allow-callers";
    allows =
      (fun ~caller ~slot:_ ->
        Domain_id.is_kernel caller || List.exists (Domain_id.equal caller) ids);
  }
