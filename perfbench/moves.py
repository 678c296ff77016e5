"""Which end-to-end metric each per-layer metric should move, and where."""

MOVES = [
    (("symfunc.lr_coefficient.", "symfunc.schur_times_schur.", "symfunc.schur_mul.",
      "symfunc.g_sym.", "symfunc.generalized_lr.", "symfunc.h_eps."),
     "wall_s and item_p50_ms on rc-sweep, and the rc/stable/dq-check items of cli-cold; "
     "almost nothing on plethysm-brute"),
    (("symfunc.powersum_mul.", "symfunc.powersum_terms", "symfunc.plethysm_powersum.",
      "symfunc.powersum_to_schur.", "symfunc.character.", "coefficients.plethysm_expansion."),
     "wall_s and items_per_s on plethysm-brute, and the plethysm-expansion item of cli-cold"),
    (("coefficients.",),
     "item_p50_ms and item_tail_ms on rc-sweep and plethysm-brute"),
    (("schur_weyl.",),
     "wall_s on schur-weyl; nothing on rc-sweep"),
    (("diagrams.",),
     "wall_s and item_tail_ms on cli-cold"),
    (("partitions.",),
     "peak_rss_mib on rc-sweep and plethysm-brute"),
    (("verify.",),
     "wall_s and item_tail_ms on cli-cold"),
    (("cli.",),
     "setup_s and item_p50_ms on cli-cold"),
    (("trace.",),
     "nothing: the cost and completeness of the tracing itself"),
]


def moves(metric: str) -> str:
    for prefixes, text in MOVES:
        if metric.startswith(prefixes):
            return text
    return ""
