open Abi

class numeric_syscall =
  object (self)
    val dl = Downlink.create ()

    (* Interests live in a bitset, so registering is O(1) however many
       numbers are already registered (the old list representation made
       register-everything quadratic in the table size) and duplicates
       are absorbed for free. *)
    val interests = Bitset.create (Sysno.max_sysno + 1)

    method downlink = dl
    method down c = Downlink.down_call dl c
    method agent_name = "agent"

    (* Transparency contract: the default agent declares no visible
       delta — everything the application observes at the system
       interface is preserved.  Agents that lawfully change observables
       (timex, crypt, union, remap, faultinject, sandbox, …) override
       this; conformance checking holds every stack to exactly what it
       declares. *)
    method declared_delta : Delta.t = Delta.none

    method register_interest n =
      (* any number inside the interception vector may be registered —
         including numbers the native interface does not define, which
         is how foreign-ABI emulation agents catch their calls *)
      Bitset.set interests n

    method register_interest_range lo hi =
      for n = lo to hi do
        self#register_interest n
      done

    method register_interest_all =
      List.iter self#register_interest Sysno.all

    method interests = Bitset.to_list interests

    method init (_argv : string array) = ()
    method init_child = ()

    method syscall (env : Envelope.t) : Value.res =
      (* Per-level dispatch charge.  This usually resolves inline (no
         effect perform) — see the CPU charge in [Kernel.Uspace]; the
         virtual cost is identical either way. *)
      Kernel.Uspace.cpu_work Cost_model.numeric_dispatch_us;
      let num = Envelope.number env in
      if num = Sysno.sys_fork then
        match Envelope.call env with
        | Ok (Call.Fork body) ->
          Boilerplate.do_fork dl ~init_child:(fun () -> self#init_child) body
        | Ok _ -> Error Errno.EFAULT
        | Error e -> Error e
      else if num = Sysno.sys_execve then
        match Envelope.call env with
        | Ok (Call.Execve (path, argv, envp)) ->
          Boilerplate.do_execve dl path argv envp
        | Ok _ -> Error Errno.EFAULT
        | Error e -> Error e
      else Downlink.down dl env

    method signal_handler (s : int) = Downlink.down_signal dl s
  end
