"""The YAGO2s stand-in: a scalable synthetic knowledge graph.

Substitution (see DESIGN.md): the paper's testbed imports the 242M-
triple YAGO2s dump. This generator synthesizes a graph that preserves
what the paper's evaluation actually measures:

* the same predicate vocabulary (24 core predicates + ``rdf:type`` +
  fillers up to the paper's 104 distinct predicates),
* heterogeneous typed entities in realistic proportions,
* Zipf-skewed object popularity, so popular nodes accumulate the
  fan-in/fan-out multiplicity that drives |AG| ≪ |embeddings|.

Everything is driven by a single integer seed; the same
``(scale, seed)`` pair always regenerates the same graph.

Witness planting
----------------
Random coverage at small scales can leave one of the ten Table-1 label
sequences empty. With ``plant_witnesses=True`` (default), one explicit
witness subgraph per paper query is inserted over dedicated entities,
guaranteeing every paper query is non-empty at every scale. The witness
adds ≤ 9 triples per query — statistically invisible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets import schema
from repro.datasets.paper_queries import PAPER_DIAMOND_LABELS, PAPER_SNOWFLAKE_LABELS
from repro.errors import DatasetError
from repro.graph.store import TripleStore
from repro.query.templates import QueryTemplate, diamond_template, snowflake_template
from repro.utils import domains
from repro.utils.domains import MAX_SCALE as MAX_SCALE  # re-exported
from repro.utils.rng import make_rng, spawn_rng

_MAX_FAN = 64  # cap a single subject's sampled fan-out


@dataclass(frozen=True)
class YagoLikeConfig:
    """Generator knobs.

    ``scale`` multiplies every type population (1.0 ≈ 9k entities /
    ~80k triples — laptop-sized; the relative behaviour of Table 1 is
    preserved, see DESIGN.md). ``filler_predicates`` pads the
    vocabulary toward the paper's 104 distinct predicates.
    """

    scale: float = 1.0
    seed: int = 0
    filler_predicates: int = (
        schema.TARGET_PREDICATE_COUNT - len(schema.CORE_PREDICATE_NAMES) - 1
    )  # -1 for rdf:type
    include_types: bool = True
    plant_witnesses: bool = True

    def __post_init__(self) -> None:
        try:
            domains.scale(self.scale, "scale")
            domains.seed(self.seed, "seed")
        except ValueError as exc:
            raise DatasetError(str(exc)) from None
        if self.filler_predicates < 0:
            raise DatasetError("filler_predicates cannot be negative")


def generate_yago_like(
    config: YagoLikeConfig | None = None,
    scale: float | None = None,
    seed: int | None = None,
    freeze: bool = True,
    backend: str | None = None,
) -> TripleStore:
    """Generate the YAGO-like graph.

    ``scale``/``seed`` shortcuts override the corresponding ``config``
    fields. The returned store is frozen by default (the paper's
    offline-preprocessed dataset is immutable). ``backend`` selects the
    store's physical layout (``None`` = ``REPRO_BACKEND``/default);
    the generated triples are backend-independent.
    """
    if config is None:
        config = YagoLikeConfig()
    if scale is not None or seed is not None:
        config = YagoLikeConfig(
            scale=scale if scale is not None else config.scale,
            seed=seed if seed is not None else config.seed,
            filler_predicates=config.filler_predicates,
            include_types=config.include_types,
            plant_witnesses=config.plant_witnesses,
        )

    rng = make_rng(config.seed)
    store = TripleStore(backend=backend)
    entities = _make_entities(store, config)

    specs = list(schema.core_predicates())
    specs += _filler_specs(config, spawn_rng(rng, "fillers"))

    for spec in specs:
        pred_rng = spawn_rng(rng, f"pred:{spec.name}")
        for ci, channel in enumerate(spec.channels):
            _populate_channel(
                store,
                entities,
                spec.name,
                channel,
                spawn_rng(pred_rng, f"channel:{ci}"),
            )

    if config.include_types:
        _emit_types(store, entities)

    if config.plant_witnesses:
        _plant_witnesses(store)

    if freeze:
        store.freeze()
    return store


# ----------------------------------------------------------------------
# Entities
# ----------------------------------------------------------------------


def _make_entities(
    store: TripleStore, config: YagoLikeConfig
) -> dict[str, np.ndarray]:
    """Intern every entity; returns id arrays per type (plus ``Any``)."""
    encode = store.dictionary.encode
    entities: dict[str, np.ndarray] = {}
    for type_name, base in schema.TYPE_BASE_COUNTS.items():
        n = max(3, int(round(base * config.scale)))
        ids = np.fromiter(
            (encode(f"{type_name}:{i}") for i in range(n)), dtype=np.int64, count=n
        )
        entities[type_name] = ids
    entities[schema.ANY] = np.concatenate(
        [entities[t] for t in schema.TYPE_NAMES]
    )
    return entities


def _zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalized rank-popularity weights ``(rank+1)^-s``."""
    if s <= 0:
        return np.full(n, 1.0 / n)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-s
    return weights / weights.sum()


def _any_weights(entities: dict[str, np.ndarray], s: float) -> np.ndarray:
    """Object weights for ``Any``-range channels (e.g. ``linksTo``).

    Two-stage: every entity *type* gets equal total mass, Zipf-skewed
    within the type. A flat Zipf over the concatenated entity array
    would concentrate essentially all link mass on the largest type
    (persons), starving small types (countries, universities, prizes)
    of in-links — and with them the diamond-query closures the paper's
    workload depends on. YAGO's real wiki-link graph likewise hits
    every entity class.
    """
    parts = []
    n_types = len(schema.TYPE_NAMES)
    for type_name in schema.TYPE_NAMES:
        n = len(entities[type_name])
        parts.append(_zipf_weights(n, s) / n_types)
    weights = np.concatenate(parts)
    return weights / weights.sum()


# ----------------------------------------------------------------------
# Edge population
# ----------------------------------------------------------------------


def _populate_channel(
    store: TripleStore,
    entities: dict[str, np.ndarray],
    predicate: str,
    channel: schema.Channel,
    rng: np.random.Generator,
) -> int:
    """Sample and insert one channel's edges; returns edges added."""
    domain = entities[channel.domain]
    range_ = entities[channel.range]
    n_dom, n_rng = len(domain), len(range_)
    n_subjects = max(1, int(round(channel.coverage * n_dom)))
    n_subjects = min(n_subjects, n_dom)
    subject_idx = rng.choice(n_dom, size=n_subjects, replace=False)
    subjects = domain[subject_idx]

    if channel.mean_out <= 1.0:
        fans = np.ones(n_subjects, dtype=np.int64)
    else:
        fans = rng.geometric(1.0 / channel.mean_out, size=n_subjects)
        np.clip(fans, 1, _MAX_FAN, out=fans)
    total = int(fans.sum())

    if channel.range == schema.ANY:
        weights = _any_weights(entities, channel.zipf)
    else:
        weights = _zipf_weights(n_rng, channel.zipf)
    objects = range_[rng.choice(n_rng, size=total, p=weights)]
    repeated_subjects = np.repeat(subjects, fans)

    p_id = store.dictionary.encode(predicate)
    added = store.add_triples(
        (s, p_id, o)
        for s, o in zip(repeated_subjects.tolist(), objects.tolist())
        if s != o  # no self-loops in the organic data
    )
    if added == 0:
        # Tiny scales can lose a channel's only sampled edge to the
        # self-loop filter; every declared predicate must exist in the
        # vocabulary (the paper's dataset has 104 distinct predicates).
        s = int(subjects[0])
        fallback = next(int(o) for o in range_ if int(o) != s)
        if store.add(s, p_id, fallback):
            added = 1
    return added


def _filler_specs(
    config: YagoLikeConfig, rng: np.random.Generator
) -> list[schema.PredicateSpec]:
    """Low-volume random predicates padding the vocabulary to 104."""
    specs = []
    type_names = list(schema.TYPE_NAMES)
    for i in range(config.filler_predicates):
        dom = type_names[int(rng.integers(len(type_names)))]
        rng_type = type_names[int(rng.integers(len(type_names)))]
        coverage = float(rng.uniform(0.02, 0.15))
        mean_out = float(rng.uniform(1.0, 2.5))
        specs.append(
            schema.PredicateSpec(
                f"rel_{i}_{dom}_{rng_type}",
                (schema.Channel(dom, rng_type, coverage, mean_out),),
            )
        )
    return specs


def _emit_types(store: TripleStore, entities: dict[str, np.ndarray]) -> None:
    encode = store.dictionary.encode
    p_type = encode(schema.RDF_TYPE)
    for type_name in schema.TYPE_NAMES:
        class_id = encode(f"class:{type_name}")
        store.add_triples(
            (ent, p_type, class_id) for ent in entities[type_name].tolist()
        )


# ----------------------------------------------------------------------
# Witness planting
# ----------------------------------------------------------------------


def _plant_witnesses(store: TripleStore) -> None:
    """Insert one witness embedding per Table-1 query."""
    snowflake = snowflake_template()
    diamond = diamond_template()
    for qi, labels in enumerate(PAPER_SNOWFLAKE_LABELS, start=1):
        _plant_one(store, snowflake, labels, f"wS{qi}")
    for qi, labels in enumerate(PAPER_DIAMOND_LABELS, start=1):
        _plant_one(store, diamond, labels, f"wD{qi}")


def _plant_one(
    store: TripleStore, template: QueryTemplate, labels: tuple[str, ...], tag: str
) -> None:
    encode = store.dictionary.encode
    node_ids = {
        var: encode(f"witness:{tag}:{var}") for var in template.variables
    }
    store.add_triples(
        (
            node_ids[edge.subject],
            encode(labels[edge.slot]),
            node_ids[edge.object],
        )
        for edge in template.edges
    )
