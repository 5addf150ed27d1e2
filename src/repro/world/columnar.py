"""The columnar hot path: Poisson-factorised month simulation.

The original fast engine walked the month hour by hour, drawing a
sequential conditional-binomial cascade per (client, site) cell -- a
Poisson transaction count thinned through DNS -> TCP -> HTTP stage
binomials, ~25 numpy RNG calls and a per-site Python replica loop *per
hour*.  At paper scale that is ~160k per-element variate draws an hour;
the interpreter and per-element binomial cost put a hard ceiling of a
few million transactions per second on the whole engine, and made the
parallel engine slower than sequential once shard pickling was paid.

This module restructures the hot path around one exact identity --
**Poisson splitting**: drawing ``N ~ Poisson(lam)`` accesses per cell
and classifying each access independently through the DNS -> TCP ->
HTTP cascade (the chain rule of a multinomial) is distributionally
identical to drawing *independent Poisson counts per outcome category*
with rates ``lam * q_cat``.  That independence is exploited twice,
because the category masses are wildly skewed (~97% of accesses
succeed):

* The 12 **rare** categories (every failure flavour) are drawn as one
  scalar ``Poisson(total)`` over the concatenated rare lattice and
  scattered with a single sorted ``searchsorted`` -- cost proportional
  to the handful of failure *events*, not the 12 x C x S cells.
* The 3 **bulk** success categories are drawn as per-cell Poisson
  planes (one ``Generator.poisson`` call each) -- no per-event
  uniforms, no sort, cost proportional to *cells* and independent of
  how many transactions land.  Raw throughput therefore *rises* with
  event density instead of falling.

The per-hour probability lattices the old engine rebuilt cell by cell
(:meth:`OutcomeModel.hour`) are computed here as
``(hours_chunk, category, client, site)`` blocks.  All hour-varying
inputs are per-client or per-site vectors, so almost every category
rate is a fused rank-1 outer product (``einsum('hc,hs,cs->hcs')``)
over a static (client, site) mask -- a handful of full-lattice passes
per chunk instead of hundreds.  All lattice math is elementwise per
hour, so chunk and shard boundaries cannot perturb any hour's rates.

Determinism contract (unchanged): every hour draws from its own derived
stream ``fast-engine/hour/<h>`` in a fixed call order -- rare total,
rare uniforms, three bulk planes, extra-attempt scatter, loss scatter,
three replica multinomials -- so shards of any shape reproduce exactly
the counts the sequential pass produces, and the merged dataset digest
is bit-identical at any worker count.  (The *values* differ from the
pre-columnar engine -- the factorisation is a different, equally valid
realisation of the same distribution -- a one-time digest migration
recorded in BENCH_trajectory.json.)

Counts are staged in hour-major int32 blocks and flushed to the sink as
one transposed block write per field, so the dataset's hour-last layout
is touched once per flush instead of once per hour.

Scratch is bounded: it does not grow with the block's length, the run's
length or the number of blocks a worker serves.  A block allocates one
lattice chunk (:attr:`ColumnarEngine.lattice_hours`, sized so that one
chunk plus one flush fit :data:`_SCRATCH_BYTES`) and one flush of
staging (:attr:`ColumnarEngine.flush_hours`, several chunks), and fills
both in place for every chunk (``out=``).  At the default world that is
3-hour chunks and 12-hour flushes, ~10.5 MB, where one 24-hour chunk of
both used to take ~33 MB, reallocated per chunk.

Every write goes through one writer, :class:`BlockSink`, over block
arrays covering an hour range: freshly allocated arrays (``run_shard``
in-process, dtype promotion allowed -- the sequential month and the
in-process fallback) or fixed-dtype views of the pooled block's shared
mapping, sliced for one shard (:mod:`repro.world.sharedmem`).  The hour
driver (:func:`repro.world.parallel.run_block`) hands the finished
block to its caller; a batch month wraps it in a
:class:`~repro.core.dataset.MeasurementDataset` by reference.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional

import numpy as np

from repro import obs
from repro.core.dataset import _widened_dtype

# -- outcome categories -------------------------------------------------------
#
# Every access lands in exactly one category; per-cell rates are
# lam * q_cat with sum_cat(q_cat) == 1 (direct and proxied rows carry
# disjoint category sets).  Order is part of the determinism contract:
# the 12 rare (failure) categories are contiguous and category-major in
# the joint scatter, so reordering them would re-scatter every hour's
# failure events.  The 3 bulk success categories sit at the end and are
# drawn as per-cell Poisson planes in id order.

CAT_DNS_LDNS = 0         # LDNS timeout                      -> dns_ldns
CAT_DNS_NONLDNS = 1      # authoritative-path timeout        -> dns_nonldns
CAT_DNS_ERROR = 2        # DNS error response                -> dns_error
CAT_TCP_NOCONN = 3       # identifiable no-connection        -> tcp_noconn
CAT_TCP_NOCONN_HID = 4   # BB no-conn, not identifiable      -> tcp_ambiguous
CAT_TCP_NORESP = 5       # no response (traced clients)      -> tcp_noresp
CAT_TCP_NORESP_AMB = 6   # no response on BB                 -> tcp_ambiguous
CAT_TCP_PARTIAL = 7      # partial response (traced)         -> tcp_partial
CAT_TCP_PARTIAL_AMB = 8  # partial response on BB            -> tcp_ambiguous
CAT_HTTP_REDIR = 9       # HTTP error, redirected fetch      -> http_errors
CAT_HTTP_PLAIN = 10      # HTTP error, direct fetch          -> http_errors
CAT_MASKED = 11          # proxied opaque failure            -> masked_failures
CAT_OK_REDIR = 12        # success, redirected fetch         (success)
CAT_OK_PLAIN = 13        # success, direct fetch             (success)
CAT_PROXIED_OK = 14      # proxied success                   (success)
N_RARE = 12              # categories [0, N_RARE) scatter jointly
N_CATEGORIES = 15

#: Mean data segments per successful transfer (Section 3.5(b) loss model).
_SEGMENTS_PER_TRANSFER = 16.0
#: Loss-rate inflation for transfers sharing an hour with TCP trouble.
_AMBIENT_LOSS_FACTOR = 1.4
#: Retransmission-inferred losses per partial-response failure.
_LOSSES_PER_PARTIAL = 6.0

#: Dataset fields staged per (client, site) plane, in commit order.
_CS_FIELDS = (
    "transactions", "dns_ldns", "dns_nonldns", "dns_error",
    "tcp_noconn", "tcp_noresp", "tcp_partial", "tcp_ambiguous",
    "http_errors", "masked_failures",
    "connections", "failed_connections", "packet_losses",
)
#: Dataset fields staged per (site, replica) plane.
_SR_FIELDS = ("replica_connections", "replica_failed_connections")

#: Scratch bytes per (hour x cell) of a lattice chunk: the float32 rate
#: lattice (one plane per category) and the peak of
#: :meth:`ColumnarEngine._build_chunk`'s float32 (hour, client, site)
#: temporaries, measured at 15 planes (ambient loss included).
_LATTICE_BYTES_PER_CELL_HOUR = 4 * (N_CATEGORIES + 15)
#: Scratch bytes per (hour x cell) of the int32 staging, one plane per
#: (client, site) field.
_STAGING_BYTES_PER_CELL_HOUR = 4 * len(_CS_FIELDS)
#: Lattice chunks per staging flush.  Each flush rewrites a cache line
#: of every (client, site) row of the hour-last dataset, so its cost per
#: hour falls as the flush grows, while the lattice's length barely
#: matters: the staging spans several chunks.  Longer flushes cost
#: memory: at the paper's month on two workers, 24-hour flushes ran the
#: engine ~5% faster than 12-hour ones, and put 6.7 MB more on each
#: worker's peak.
_CHUNKS_PER_FLUSH = 4
#: Scratch budget of the engine: the lattice of one chunk plus the
#: staging of one flush.  Both are allocated once per block and reused,
#: so this bounds the scratch at any block length and any world scale:
#: 3-hour chunks, 12-hour flushes and ~10.5 MB at the default world
#: (134 clients x 80 sites), against ~33 MB for one 24-hour chunk of
#: both.
_SCRATCH_BYTES = 12 << 20


def expected_leading_failures(
    replica_eff_fail: np.ndarray, n_replicas: np.ndarray
) -> np.ndarray:
    """Expected dead-replica attempts before a success, vectorised.

    ``replica_eff_fail`` is ``(..., S, R)`` with nonexistent replicas
    already zeroed; ``n_replicas`` is ``(S,)``.  Matches the scalar
    derivation: with the address list rotated uniformly and replica r
    down with probability q_r, the expected failed attempts before an up
    replica, conditioned on one being up, is ~ sum(q) / (n - sum(q) + 1)
    for multi-replica sites with at least one replica expected up.
    """
    down = replica_eff_fail.sum(axis=-1)
    up = n_replicas.astype(np.float64) - down
    return np.where(
        (n_replicas > 1) & (up > 0.0),
        down / np.where(up > 0.0, up + 1.0, 1.0),
        0.0,
    )


class BlockSink:
    """Commit hour blocks into standalone arrays covering ``[h0, h1)``.

    ``fixed_dtype=True`` (a pooled shard writing into the block's
    shared mapping) forbids promotion: the parent pre-sized every
    array's dtype from the access configuration
    (:meth:`~repro.core.dataset.MeasurementDataset.planned_dtypes`), so
    an overflow means the plan was wrong and must fail loudly, never
    wrap; the pooled block then demotes to in-process shards.
    """

    def __init__(
        self,
        arrays: Dict[str, np.ndarray],
        hour_start: int,
        fixed_dtype: bool = False,
    ) -> None:
        self.arrays = arrays
        self.hour_start = hour_start
        self.fixed_dtype = fixed_dtype

    def commit_block(self, name: str, h0: int, h1: int,
                     block: np.ndarray) -> None:
        """Write the block for experiment hours ``[h0, h1)`` at its offset."""
        arr = self.arrays[name]
        peak = int(block.max()) if block.size else 0
        if peak > np.iinfo(arr.dtype).max:
            if self.fixed_dtype:
                raise OverflowError(
                    f"array {name}: count {peak} exceeds the pre-sized "
                    f"{arr.dtype.name} shard buffer -- the planned count "
                    "dtype underestimated this access configuration"
                )
            arr = arr.astype(_widened_dtype(peak, arr.dtype))
            self.arrays[name] = arr
        t0 = h0 - self.hour_start
        arr[..., t0 : t0 + (h1 - h0)] = np.moveaxis(block, 0, -1)


class _ChunkLattice:
    """Rate lattices for one contiguous hour chunk.

    ``rates`` is ``(Hc, K, C, S)`` float32 -- hour-major, categories
    contiguous per hour, so the rare block ``rates[t, :N_RARE]`` is one
    flat vector ready for ``cumsum`` and each bulk plane
    ``rates[t, k]`` is contiguous for ``Generator.poisson``.  ``rates``
    and ``ambient`` are leading-hour views of the block's scratch
    (:meth:`ColumnarEngine.simulate_block`).
    """

    __slots__ = ("hour_start", "rates", "ambient", "exp_extra", "replica_w")

    def __init__(self, hour_start, rates, ambient, exp_extra, replica_w):
        self.hour_start = hour_start
        self.rates = rates          # (Hc, K, C, S)
        self.ambient = ambient      # (Hc, C, S) loss rate per delivered
        self.exp_extra = exp_extra  # (Hc, S) dead-replica attempts factor
        self.replica_w = replica_w  # (Hc, S, R) effective replica failure


class _Scratch:
    """One block's engine scratch, allocated once at fixed lengths.

    ``rates``/``ambient`` hold one lattice chunk, ``staging`` one flush
    (hour-major, int32: half the flush traffic of int64), and
    ``rare_cum`` one hour's rare-category thresholds.  Reusing them for
    every chunk and hour keeps the engine off the allocator: allocated
    afresh each hour, the 1 MB threshold vector went back to the kernel
    and was faulted in again, ~0.5 ms per hour.
    """

    __slots__ = ("rates", "ambient", "staging", "rare_cum")

    def __init__(self, engine: "ColumnarEngine") -> None:
        c, s = engine.shape
        chunk, flush = engine.lattice_hours, engine.flush_hours
        r_width = engine._replica_exists.shape[1]
        self.rates = np.empty((chunk, N_CATEGORIES, c, s), dtype=np.float32)
        self.ambient = np.empty((chunk, c, s), dtype=np.float32)
        # Every (C, S) plane is fully assigned each hour, so np.empty is
        # safe; the replica planes only ever write active rows and need
        # the zeros.
        self.staging = {
            name: np.empty((flush, c, s), dtype=np.int32)
            for name in _CS_FIELDS
        }
        self.staging.update(
            (name, np.zeros((flush, s, r_width), dtype=np.int32))
            for name in _SR_FIELDS
        )
        self.rare_cum = np.empty(N_RARE * c * s, dtype=np.float64)


class ColumnarEngine:
    """Shared-model month engine over the factorised category lattice."""

    def __init__(self, model, truth, rngs, access) -> None:
        self.model = model
        self.truth = truth
        self.rngs = rngs
        self.access = access
        self._build_static()

    # -- static (hour-invariant) structure ----------------------------------

    def _build_static(self) -> None:
        from repro.world.outcome_model import (
            CLIENT_SIDE_MIX,
            PERMANENT_NOCONN_MIX,
            PERMANENT_PARTIAL_MIX,
        )

        model, truth, access = self.model, self.truth, self.access
        c = len(model.world.clients)
        s = len(model.world.websites)
        self.n_cells = c * s
        self.shape = (c, s)

        proxied = model.proxied
        direct = ~proxied
        ambiguous = model.bb & direct
        self.direct = direct
        # Row masks as float vectors over clients (float32: these only
        # scale lattice rates, see the note in :meth:`_build_chunk`).
        f_direct = direct.astype(np.float32)
        self._f_direct = f_direct
        self._f_prox = proxied.astype(np.float32)
        # No-connection visibility split: traced rows are fully visible,
        # ambiguous (BB) rows split between the identifiable and hidden
        # no-connection categories (Figure 3's combined category).
        vis = access.bb_noconn_visibility
        f_amb = (ambiguous & direct).astype(np.float32)
        self._f_amb = f_amb
        self._f_nonamb = f_direct - f_amb
        self._f_vis = (np.where(ambiguous, vis, 1.0) * f_direct).astype(
            np.float32
        )
        self._f_hid = np.float32(1.0 - vis) * f_amb

        self.n_replicas = model.n_replicas
        r_width = max(
            1, truth.replica_fail.shape[1] if truth.replica_fail.ndim == 3 else 1
        )
        r_idx = np.arange(r_width)[None, :]
        self._replica_exists = r_idx < self.n_replicas[:, None]  # (S, R)
        self.replica_active = np.nonzero(self.n_replicas > 0)[0]
        active = self.replica_active
        # Uniform split weights over existing replicas of active sites.
        self._replica_uniform = (
            self._replica_exists[active].astype(np.float64)
            / self.n_replicas[active, None]
        )

        self.spread = model.spread_site.astype(np.float64)
        tries = np.where(
            truth.permanent_pair > 0, access.permanent_tries, access.tries
        )
        self._tries_addr = (tries * model.n_addresses[None, :]).astype(np.int64)
        self._redirect_p = model.redirect_p.astype(np.float32)  # (S,)
        self._bg_loss_rate = np.float32(
            truth.config.background_packet_loss * _SEGMENTS_PER_TRANSFER
        )
        self._bg_tcp = model.background_tcp.astype(np.float32)  # (C,)
        # Static per-client mix contributions from the background cause.
        self._bg_mix_k = [
            (self._bg_tcp * model.background_mix[:, k]).astype(np.float32)
            for k in range(3)
        ]
        self._client_mix_k = np.asarray(CLIENT_SIDE_MIX, dtype=np.float32)
        perm = truth.permanent_pair.astype(np.float32)
        self._perm_comp = 1.0 - perm  # (C, S)
        perm_noconn = (truth.permanent_pair_kind == 1) * perm
        perm_partial = (truth.permanent_pair_kind == 2) * perm
        # Static (C, S) mix contributions from permanent pair faults.
        self._perm_mix_k = [
            (
                perm_noconn * PERMANENT_NOCONN_MIX[k]
                + perm_partial * PERMANENT_PARTIAL_MIX[k]
            ).astype(np.float32)
            for k in range(3)
        ]
        base = model.base_accesses.astype(np.float32)
        self._base_dir = base * f_direct[:, None]   # (C, S)
        self._base_prox = base * self._f_prox[:, None]
        #: Hours per rate-lattice chunk; a staging flush is
        #: :attr:`flush_hours` long.
        self.lattice_hours = max(1, _SCRATCH_BYTES // max(1, self.n_cells * (
            _LATTICE_BYTES_PER_CELL_HOUR
            + _CHUNKS_PER_FLUSH * _STAGING_BYTES_PER_CELL_HOUR
        )))

    @property
    def flush_hours(self) -> int:
        """Hours staged per sink flush: several lattice chunks."""
        return _CHUNKS_PER_FLUSH * self.lattice_hours

    # -- rate lattices -------------------------------------------------------

    def _build_chunk(
        self, h0: int, h1: int, rates: np.ndarray, ambient: np.ndarray
    ) -> _ChunkLattice:
        """Category-rate lattices for hours ``[h0, h1)``, in place.

        ``rates`` ``(Hc, K, C, S)`` and ``ambient`` ``(Hc, C, S)`` are
        float32 scratch views every lattice plane is written into
        (``out=``), so a block reuses one allocation for all its chunks.
        Everything here is elementwise per hour (broadcast over the hour
        axis), so the values for hour ``h`` are independent of the chunk
        and shard boundaries around it -- the property the determinism
        contract rests on.  Hour-varying inputs are (hour, client) and
        (hour, site) vectors; the full-lattice passes are the fused
        einsum outer products and the mix normalisation.
        """
        from repro.world.outcome_model import REPLICA_DOWN_MIX

        model, truth = self.model, self.truth
        hs = slice(h0, h1)
        ein = np.einsum

        # The lattice is built in float32: every pass over the full
        # (Hc, K, C, S) block moves half the bytes of float64, and a
        # per-cell rate only steers sampling -- the 2e-7 relative
        # rounding is orders of magnitude below the Poisson noise.
        # Scatter *thresholds* (the cumsums) stay float64.
        def ch(arr):  # (C, H) -> (Hc, C) float32
            return np.ascontiguousarray(arr[:, hs].T, dtype=np.float32)

        def sh(arr):  # (S, H) -> (Hc, S) float32
            return np.ascontiguousarray(arr[:, hs].T, dtype=np.float32)

        # ---- hour x client vectors ----
        cu = ch(truth.client_up)
        p_ldns = 1.0 - (1.0 - ch(truth.ldns_fail)) * (
            1.0 - ch(truth.wan_dns_fail)
        )
        surv_ldns = 1.0 - p_ldns
        p_client = ch(truth.total_client_tcp_fail())
        # Client-side TCP survival (client cause x background cause).
        a_client = (1.0 - p_client) * (1.0 - self._bg_tcp)[None, :]

        # ---- hour x site vectors ----
        p_nonldns = sh(truth.site_auth_timeout)
        p_dnserr = sh(truth.site_dns_error)
        dns_site_ok = (1.0 - p_nonldns) * (1.0 - p_dnserr)

        r_eff = np.maximum(
            truth.replica_fail[:, :, hs], truth.bgp_replica_fail[:, :, hs]
        ).astype(np.float64)  # (S, R, Hc)
        r_eff = np.ascontiguousarray(r_eff.transpose(2, 0, 1))  # (Hc, S, R)
        exists = self._replica_exists[None, :, :]
        r_eff = np.where(exists, r_eff, 0.0)
        p_all_down = np.where(
            self.n_replicas[None, :] > 0,
            np.prod(np.where(exists, r_eff, 1.0), axis=2),
            0.0,
        ).astype(np.float32)  # (Hc, S)

        site_bad = sh(truth.site_fail)
        # Same-subnet sites: BGP trouble on the shared prefix is a
        # site-wide correlated cause (raw BGP, not the per-replica max).
        shared_bgp = np.where(
            (~model.spread_site & (self.n_replicas > 0))[None, :],
            sh(truth.bgp_replica_fail[:, 0, :]),
            0.0,
        )
        site_corr = 1.0 - (1.0 - site_bad) * (1.0 - shared_bgp)
        site_corr = 1.0 - (1.0 - site_corr) * (
            1.0 - truth.direct_elevated.astype(np.float32)[None, :]
        )
        # Site-side TCP survival (site cause x replica-down cause).
        b_site = (1.0 - site_corr) * (1.0 - p_all_down)
        p_http = sh(truth.site_http_error)

        # ---- full-lattice passes ----
        # E = 1 - p_tcp: the product of all survival factors.
        e = ein("hc,hs->hcs", a_client, b_site)
        e *= self._perm_comp[None]
        # G = lam * f_direct * dns_ok.
        g = ein("hc,hs,cs->hcs", cu * surv_ldns, dns_site_ok, self._base_dir)
        delivered_rate = g * e
        tcp_rate = g - delivered_rate
        # float32 rounding can leave subtraction residues at -1 ulp;
        # Poisson rates must be non-negative.
        np.maximum(tcp_rate, 0.0, out=tcp_rate)

        # ---- TCP kind mix: blend by cause weight, grouped by shape ----
        # Site-shaped weights (Hc, S), client-shaped (Hc, C), static (C, S).
        site_mix = truth.site_mix
        s_k = [
            site_corr * site_mix[k]
            + (p_all_down * REPLICA_DOWN_MIX[k] if REPLICA_DOWN_MIX[k] else 0.0)
            for k in range(3)
        ]
        c_k = [
            p_client * self._client_mix_k[k] + self._bg_mix_k[k][None, :]
            for k in range(3)
        ]
        p_k = self._perm_mix_k
        total_w = c_k[0] + c_k[1] + c_k[2]
        total_w = total_w[:, :, None] + (s_k[0] + s_k[1] + s_k[2])[:, None, :]
        total_w += (p_k[0] + p_k[1] + p_k[2])[None]
        # tcp_rate / total_weight, zero where no cause carries weight.
        scaled = np.divide(
            tcp_rate, total_w, out=np.zeros_like(tcp_rate),
            where=total_w > 0.0,
        )
        # Zero-weight cells fall back to the pure no-connection mix
        # (mix == (1, 0, 0)): the whole rate routes to noconn below.
        fallback = (total_w <= 0.0) & (tcp_rate > 0.0)

        def kind_rate(k):
            m = c_k[k][:, :, None] + s_k[k][:, None, :]
            m += p_k[k][None]
            m *= scaled
            return m

        r_noconn = kind_rate(0)
        if fallback.any():
            r_noconn = np.where(fallback, tcp_rate, r_noconn)
        r_noresp = kind_rate(1)
        r_partial = kind_rate(2)
        mul, sub = np.multiply, np.subtract
        mul(r_noconn, self._f_vis[None, :, None], out=rates[:, CAT_TCP_NOCONN])
        mul(r_noconn, self._f_hid[None, :, None],
            out=rates[:, CAT_TCP_NOCONN_HID])
        mul(r_noresp, self._f_nonamb[None, :, None],
            out=rates[:, CAT_TCP_NORESP])
        mul(r_noresp, self._f_amb[None, :, None],
            out=rates[:, CAT_TCP_NORESP_AMB])
        mul(r_partial, self._f_nonamb[None, :, None],
            out=rates[:, CAT_TCP_PARTIAL])
        mul(r_partial, self._f_amb[None, :, None],
            out=rates[:, CAT_TCP_PARTIAL_AMB])

        # ---- DNS stage (fused rank-1 products) ----
        ein("hc,cs->hcs", cu * p_ldns, self._base_dir,
            out=rates[:, CAT_DNS_LDNS])
        ein("hc,hs,cs->hcs", cu * surv_ldns, p_nonldns, self._base_dir,
            out=rates[:, CAT_DNS_NONLDNS])
        ein("hc,hs,cs->hcs",
            cu * surv_ldns, (1.0 - p_nonldns) * p_dnserr, self._base_dir,
            out=rates[:, CAT_DNS_ERROR])

        # ---- HTTP stage / delivered splits ----
        herr = delivered_rate * p_http[:, None, :]
        d_ok = delivered_rate - herr
        redir = self._redirect_p[None, None, :]
        mul(herr, redir, out=rates[:, CAT_HTTP_REDIR])
        sub(herr, rates[:, CAT_HTTP_REDIR], out=rates[:, CAT_HTTP_PLAIN])
        mul(d_ok, redir, out=rates[:, CAT_OK_REDIR])
        sub(d_ok, rates[:, CAT_OK_REDIR], out=rates[:, CAT_OK_PLAIN])
        np.maximum(
            rates[:, CAT_HTTP_PLAIN], 0.0, out=rates[:, CAT_HTTP_PLAIN]
        )
        np.maximum(rates[:, CAT_OK_PLAIN], 0.0, out=rates[:, CAT_OK_PLAIN])

        # ---- Proxied rows: opaque pass/fail ----
        mean_replica_fail = np.where(
            self.n_replicas[None, :] > 0,
            r_eff.sum(axis=2) / np.maximum(1, self.n_replicas)[None, :],
            0.0,
        ).astype(np.float32)
        p_proxy_dns = p_nonldns + p_dnserr
        p_site_up_fail = 1.0 - (
            (1.0 - site_corr)
            * (1.0 - mean_replica_fail)
            * (1.0 - truth.proxy_hostile.astype(np.float32)[None, :])
            * (1.0 - p_proxy_dns)
        )
        lam_prox = ein("hc,cs->hcs", cu, self._base_prox)
        ein("hc,hs,cs->hcs",
            cu * a_client, 1.0 - p_site_up_fail, self._base_prox,
            out=rates[:, CAT_PROXIED_OK])
        sub(lam_prox, rates[:, CAT_PROXIED_OK], out=rates[:, CAT_MASKED])
        np.maximum(rates[:, CAT_MASKED], 0.0, out=rates[:, CAT_MASKED])

        mul(
            self._bg_loss_rate
            + (1.0 - e) * (_SEGMENTS_PER_TRANSFER * _AMBIENT_LOSS_FACTOR),
            self._f_direct[None, :, None],
            out=ambient,
        )
        exp_extra = expected_leading_failures(r_eff, self.n_replicas)
        return _ChunkLattice(h0, rates, ambient, exp_extra, r_eff)

    # -- the hour kernel -----------------------------------------------------

    def simulate_block(self, hour_start, hour_stop, sink, stage_seconds=None):
        """Simulate hours ``[hour_start, hour_stop)`` into ``sink``.

        Chunks the block for the rate lattices, runs every hour's draws
        from its own ``fast-engine/hour/<h>`` stream in a fixed call
        order into hour-major staging blocks, and flushes the staging to
        the sink every :attr:`flush_hours` as one block write per field.
        Per-hour ``hour_done`` telemetry streams off the staged planes
        for ``--live``.

        The lattice (one chunk) and the staging (one flush) are
        allocated once, at their fixed lengths, and every chunk and
        flush fills their leading hours in place: the block's scratch
        is the same for a 1-hour and a month-long block.
        """
        emitter = obs.emitter()
        stages = stage_seconds if stage_seconds is not None else {}
        for name in ("dns", "tcp", "http", "commit"):
            stages.setdefault(name, 0.0)
        if hour_stop <= hour_start:
            return
        scratch = _Scratch(self)
        staging = scratch.staging
        flush_hours = self.flush_hours
        for f0 in range(hour_start, hour_stop, flush_hours):
            f1 = min(f0 + flush_hours, hour_stop)
            for c0 in range(f0, f1, self.lattice_hours):
                c1 = min(c0 + self.lattice_hours, f1)
                t0 = perf_counter()
                lattice = self._build_chunk(
                    c0, c1, scratch.rates[:c1 - c0], scratch.ambient[:c1 - c0]
                )
                stages["dns"] += perf_counter() - t0
                _check_staging_capacity(lattice)
                for h in range(c0, c1):
                    stream = f"fast-engine/hour/{h}"
                    with obs.span("simulate.hour", hour=h):
                        rng = self.rngs.np_fresh(stream)
                        self._simulate_hour(
                            h, lattice, rng, scratch, h - f0, stages
                        )
                    if emitter.enabled:
                        emitter.emit(
                            "hour_done", hour=h, stream=stream,
                            **_hour_counts(staging, h - f0),
                        )
            t2 = perf_counter()
            for name, block in staging.items():
                sink.commit_block(name, f0, f1, block[:f1 - f0])
            stages["commit"] += perf_counter() - t2

    def _simulate_hour(self, h, lattice, rng, scratch, t, stages) -> None:
        """Hour ``h``'s draws, in the fixed stream order (see module
        doc), staged at row ``t`` of ``scratch.staging``."""
        t0 = perf_counter()
        c, s = self.shape
        n_cells = self.n_cells
        staging = scratch.staging
        lt = h - lattice.hour_start
        rates = lattice.rates[lt]

        # ---- 1. Rare categories: one Poisson total + sorted scatter ----
        # float64 accumulation: the thresholds must be strictly monotone
        # for searchsorted even though the per-cell rates are float32.
        rare_cum = np.cumsum(
            rates[:N_RARE].reshape(-1), dtype=np.float64, out=scratch.rare_cum
        )
        idx = _scatter_sorted(rng, rare_cum)
        # Category segment boundaries within the sorted flat indices.
        bounds = np.searchsorted(
            idx, np.arange(1, N_RARE + 1) * n_cells, side="left"
        )
        cell = idx % n_cells

        def seg(k):
            lo = bounds[k - 1] if k else 0
            return cell[lo:bounds[k]]

        def plane(*cats):
            parts = [seg(k) for k in cats]
            cells = parts[0] if len(parts) == 1 else np.concatenate(parts)
            return np.bincount(cells, minlength=n_cells).reshape(c, s)

        # ---- 2. Bulk success categories: per-cell Poisson planes ----
        ok_redir = rng.poisson(rates[CAT_OK_REDIR])
        ok_plain = rng.poisson(rates[CAT_OK_PLAIN])
        proxied_ok = rng.poisson(rates[CAT_PROXIED_OK])
        t1 = perf_counter()
        stages["tcp"] += t1 - t0

        # ---- Derived aggregates (pure arithmetic) ----
        dns_ldns = plane(CAT_DNS_LDNS)
        dns_nonldns = plane(CAT_DNS_NONLDNS)
        dns_error = plane(CAT_DNS_ERROR)
        tcp_noconn = plane(CAT_TCP_NOCONN)
        tcp_noresp = plane(CAT_TCP_NORESP)
        tcp_partial = plane(CAT_TCP_PARTIAL)
        tcp_ambiguous = plane(
            CAT_TCP_NOCONN_HID, CAT_TCP_NORESP_AMB, CAT_TCP_PARTIAL_AMB
        )
        http_redir = plane(CAT_HTTP_REDIR)
        http_plain = plane(CAT_HTTP_PLAIN)
        masked = plane(CAT_MASKED)
        http_errors = http_redir + http_plain
        partial_amb = plane(CAT_TCP_PARTIAL_AMB)

        tcp_f = tcp_noconn + tcp_noresp + tcp_partial + tcp_ambiguous
        delivered = http_errors + ok_redir + ok_plain
        redirects = http_redir + ok_redir
        partial = tcp_partial + partial_amb
        transactions = (
            dns_ldns + dns_nonldns + dns_error
            + tcp_f + delivered + masked + proxied_ok
        )

        # ---- 3. Conditional draws, fixed order ----
        # Extra failed attempts past dead replicas at spread sites: each
        # delivered transaction contributes Poisson(exp_extra) failures.
        lam_extra = delivered * (lattice.exp_extra[lt] * self.spread)[None, :]
        extra_failed = _place_poisson(rng, lam_extra)
        # Retransmission-inferred packet losses (Section 3.5(b)).
        lam_loss = (
            delivered * lattice.ambient[lt] + partial * _LOSSES_PER_PARTIAL
        )
        losses = _place_poisson(rng, lam_loss)
        t2 = perf_counter()
        stages["http"] += t2 - t1

        failed_conns = tcp_f * self._tries_addr + extra_failed
        total_conns = delivered + redirects + failed_conns

        # ---- 4. Replica-level splits (batched multinomials) ----
        active = self.replica_active
        site_conns = total_conns.sum(axis=0)[active]
        site_failed = failed_conns.sum(axis=0)[active]
        site_extra = extra_failed.sum(axis=0)[active]
        w = lattice.replica_w[lt][active]
        w_sum = w.sum(axis=1, keepdims=True)
        weights = np.where(
            w_sum > 0, w / np.where(w_sum > 0, w_sum, 1.0),
            self._replica_uniform,
        )
        # Failed attempts concentrate on the dead replicas; the remainder
        # and the connection totals spread uniformly.
        extra_split = rng.multinomial(site_extra, weights)
        base_split = rng.multinomial(
            site_failed - site_extra, self._replica_uniform
        )
        conns_split = rng.multinomial(site_conns, self._replica_uniform)
        failed_r = extra_split + base_split
        conns_r = np.maximum(conns_split, failed_r)

        # ---- Stage this hour's planes (hour-major scratch) ----
        staging["transactions"][t] = transactions
        staging["dns_ldns"][t] = dns_ldns
        staging["dns_nonldns"][t] = dns_nonldns
        staging["dns_error"][t] = dns_error
        staging["tcp_noconn"][t] = tcp_noconn
        staging["tcp_noresp"][t] = tcp_noresp
        staging["tcp_partial"][t] = tcp_partial
        staging["tcp_ambiguous"][t] = tcp_ambiguous
        staging["http_errors"][t] = http_errors
        staging["masked_failures"][t] = masked
        staging["connections"][t] = total_conns
        staging["failed_connections"][t] = failed_conns
        staging["packet_losses"][t] = losses
        staging["replica_connections"][t][active] = conns_r
        staging["replica_failed_connections"][t][active] = failed_r
        stages["commit"] += perf_counter() - t2


def _check_staging_capacity(lattice: _ChunkLattice) -> None:
    """Refuse a chunk whose draws could wrap the int32 staging.

    A draw past the staging's range would wrap *before* the sink's peak
    check could see it -- the wrapped value looks small and honest.
    Bound the worst cell a priori from the rate lattice with the same
    Poisson tail logic planned_dtypes uses (x8 headroom for
    loss/connection multiplicity) and refuse to simulate past it rather
    than corrupt counts silently.
    """
    rates = lattice.rates
    peak_cell = 8.0 * float(rates.sum(axis=1).max()) if rates.size else 0.0
    if peak_cell + 12.0 * peak_cell ** 0.5 + 64.0 > float(
        np.iinfo(np.int32).max
    ):
        raise OverflowError(
            f"per-cell hourly rate {peak_cell / 8.0:.4g} exceeds "
            "the int32 staging capacity; reduce per_hour or "
            "widen the staging dtype"
        )


def _scatter_sorted(rng: np.random.Generator, cum: np.ndarray) -> np.ndarray:
    """Sorted flat cell indices of one ``Poisson(cum[-1])`` scatter.

    Exact: a vector of independent Poisson counts is distributionally a
    single ``Poisson(sum)`` total scattered multinomially with the rates
    as weights.  The draw order (scalar total, then one uniform array)
    is fixed, so any process simulating this hour consumes the stream
    identically; the sort is pure post-processing of the uniforms and
    keeps the binary searches cache-local.
    """
    total = float(cum[-1]) if cum.size else 0.0
    n = int(rng.poisson(total))
    u = rng.random(n) * total
    u.sort()
    idx = np.searchsorted(cum, u, side="right")
    if n:
        np.minimum(idx, cum.size - 1, out=idx)
    return idx


def _place_poisson(rng: np.random.Generator, lam: np.ndarray) -> np.ndarray:
    """Independent per-cell Poisson draws via total + scatter (see above)."""
    cum = np.cumsum(lam.reshape(-1), dtype=np.float64)
    idx = _scatter_sorted(rng, cum)
    return np.bincount(idx, minlength=lam.size).reshape(lam.shape)


def _hour_counts(staging, t: int) -> Dict[str, int]:
    """Per-failure-type transaction counts of staged hour ``t``.

    Reads the staged planes back, so the emitter can never perturb the
    dataset or the RNG -- the digest is identical with telemetry on or
    off.
    """

    def total(*fields: str) -> int:
        return int(
            sum(staging[name][t].sum(dtype=np.int64) for name in fields)
        )

    return {
        "transactions": total("transactions"),
        "dns": total("dns_ldns", "dns_nonldns", "dns_error"),
        "tcp": total("tcp_noconn", "tcp_noresp", "tcp_partial", "tcp_ambiguous"),
        "http": total("http_errors"),
        "masked": total("masked_failures"),
    }
