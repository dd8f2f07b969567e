type t = Mvfb | Mc | Sa | Portfolio | Center | Quale | Robust

let all = [ Mvfb; Mc; Sa; Portfolio; Center; Quale; Robust ]

let to_string = function
  | Mvfb -> "mvfb"
  | Mc -> "mc"
  | Sa -> "sa"
  | Portfolio -> "portfolio"
  | Center -> "center"
  | Quale -> "quale"
  | Robust -> "robust"

let of_string s = List.find_opt (fun k -> to_string k = s) all

let resolve ~allowed name =
  match of_string name with
  | Some k when List.mem k allowed -> Ok k
  | _ ->
      Error
        (Printf.sprintf "unknown placer %s (%s)" name
           (String.concat "|" (List.map to_string allowed)))

let policy kind (config : Config.t) =
  match kind with Quale -> config.Config.quale_policy | _ -> config.Config.qspr_policy

let map ?jobs ?prescreen_k kind ctx =
  let m = (Mapper.config ctx).Config.m in
  match kind with
  | Mvfb -> Mapper.map_mvfb ?jobs ?prescreen_k ctx
  | Mc -> Mapper.map_monte_carlo ~runs:m ?jobs ?prescreen_k ctx
  | Sa -> Mapper.map_annealing ~evaluations:m ?jobs ?prescreen_k ctx
  | Portfolio -> Mapper.map_portfolio ~m ?jobs ctx
  | Center -> Mapper.map_center ctx
  | Quale -> Quale_mode.map ctx
  | Robust -> Mapper.map_robust ?jobs ctx
