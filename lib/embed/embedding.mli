(** Minor embeddings: each logical variable occupies a *chain* of physical
    qubits held together by strong ferromagnetic couplers (section 4.4).

    [apply] produces the physical Hamiltonian: linear coefficients are split
    evenly across a chain's qubits, each logical coupler is split across the
    physical edges joining the two chains, and every intra-chain edge gets
    [-chain_strength].  [unembed] maps physical samples back by majority
    vote over each chain. *)

type t = { chains : int array array }
(** [chains.(v)] lists the physical qubits of logical variable [v]. *)

val num_physical_qubits : t -> int
(** Total qubits used (the section 6.1 metric). *)

val max_chain_length : t -> int

(** [verify graph problem embedding] checks the embedding is a valid minor:
    chains are nonempty, disjoint, connected in [graph], within range, and
    every logical coupler has at least one physical edge between its
    endpoint chains. *)
val verify :
  Qac_chimera.Chimera.t -> Qac_ising.Problem.t -> t -> (unit, string) result

val default_chain_strength : Qac_ising.Problem.t -> float
(** Twice the largest coefficient magnitude of the logical problem. *)

(** [apply graph problem embedding] builds the physical Ising problem over
    the graph's qubit index space.  Raises [Invalid_argument] on embeddings
    that fail {!verify}. *)
val apply :
  ?chain_strength:float ->
  Qac_chimera.Chimera.t ->
  Qac_ising.Problem.t ->
  t ->
  Qac_ising.Problem.t

type unembedded = {
  logical : Qac_ising.Problem.spin array;
  broken_chains : int;  (** chains whose qubits disagreed *)
}

(** Chain-break resolution policy.  [Vote] takes the majority spin of each
    chain (first qubit breaks ties).  [Discard] resolves like [Vote] at
    this level; {!solve} drops reads whose [broken_chains] is non-zero,
    falling back to the voted reads when every read would be dropped.
    [Polish] greedy-descends the physical configuration on the embedded
    problem first (the chain couplers pull broken chains back into
    agreement), then votes; it needs the physical problem via [?problem]
    and degrades to [Vote] without it. *)
type chain_break = Vote | Discard | Polish

val chain_break_of_string : string -> chain_break option
(** ["vote"] / ["discard"] / ["polish"]; [None] otherwise (CLI parsing). *)

val string_of_chain_break : chain_break -> string

val unembed :
  ?policy:chain_break ->
  ?problem:Qac_ising.Problem.t ->
  t ->
  Qac_ising.Problem.spin array ->
  unembedded
(** [policy] defaults to [Vote].  [broken_chains] always reports the raw
    read's disagreeing chains, even under [Polish]. *)

(** [compact p] drops variables with no coefficients, returning the smaller
    problem and the map from new to old indices.  Useful before running a
    sampler on a physical problem that occupies a fraction of the chip. *)
val compact : Qac_ising.Problem.t -> Qac_ising.Problem.t * int array

(** [solve ?trace ?policy ~solver embedding physical] is the embedded-solve
    stage of every physical path (single runs, tiled batches, SAT):
    {!compact} [physical] (the problem {!apply} built for [embedding]), run
    [solver] on the compacted problem, expand each sample back to the full
    index space (unused qubits at [+1]), and {!unembed} it under [policy]
    (default [Vote]).  Returns the raw response over the compacted problem
    and the kept [(unembedded, occurrences)] pairs, one per distinct
    sample, in the response's sample order.  [Discard] drops the reads
    with a broken chain, falling back to the voted reads when every read
    is broken.  [trace] records a [solve] span (counters [reads],
    [timed-out]) and an [unembed] span ([broken-chains]: the
    occurrence-weighted broken-chain total before any discard;
    [discarded-reads]). *)
val solve :
  ?trace:Qac_diag.Trace.t ->
  ?policy:chain_break ->
  solver:(Qac_ising.Problem.t -> Qac_anneal.Sampler.response) ->
  t ->
  Qac_ising.Problem.t ->
  Qac_anneal.Sampler.response * (unembedded * int) list
