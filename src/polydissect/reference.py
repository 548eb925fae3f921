"""Published vertex, edge and tile counts for n = 2..39 (N = 4..78)."""

from __future__ import annotations

from .arrangement import CountSummary

# Published (F, E) reference counts for n = 2..39 (N = 4..78). V, per_ray
# and central are derived: V = E - F + 1, F = N*per_ray + central.
_REFERENCE_F_E = [
    (1, 4),            # n = 2
    (6, 12),           # n = 3
    (25, 48),          # n = 4
    (50, 80),          # n = 5
    (145, 276),        # n = 6
    (224, 378),        # n = 7
    (497, 960),        # n = 8
    (630, 1062),       # n = 9
    (1281, 2500),      # n = 10
    (1606, 2860),      # n = 11
    (2761, 5424),      # n = 12
    (3302, 5980),      # n = 13
    (5265, 10388),     # n = 14
    (5940, 10770),     # n = 15
    (9185, 18176),     # n = 16
    (10472, 19482),    # n = 17
    (14977, 29700),    # n = 18
    (16834, 31616),    # n = 19
    (23161, 46000),    # n = 20
    (25284, 47460),    # n = 21
    (34321, 68244),    # n = 22
    (37720, 71714),    # n = 23
    (49105, 97728),    # n = 24
    (53500, 102150),   # n = 25
    (68225, 135876),   # n = 26
    (73278, 140076),   # n = 27
    (92457, 184240),   # n = 28
    (99470, 191284),   # n = 29
    (122641, 244500),  # n = 30
    (131316, 253270),  # n = 31
    (159681, 318464),  # n = 32
    (169158, 326238),  # n = 33
    (204545, 408068),  # n = 34
    (217210, 420840),  # n = 35
    (258265, 515376),  # n = 36
    (273282, 530432),  # n = 37
    (321937, 642580),  # n = 38
    (338208, 656526),  # n = 39
]


def reference_table() -> list[CountSummary]:
    """The 38 published (n, F, E) rows with their derived columns."""
    rows = []
    for i, (f, e) in enumerate(_REFERENCE_F_E):
        n = i + 2
        central = 1 if n % 2 == 0 else 0
        rows.append(CountSummary(n=n, V=e - f + 1, E=e, F=f,
                                 per_ray=(f - central) // (2 * n), central=central))
    return rows
