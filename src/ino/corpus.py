"""Deterministic synthetic corpus generation for tests and benchmarks.

Same profile + seed into a fresh repository yields a byte-identical object
tree, provided the repository runs on a virtual clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from xml.sax.saxutils import escape

from .api import MetadataSpec, Repository, ResourceSpec
from .errors import NotEmpty

_SUBJECTS = (
    "physics", "chemistry", "biology", "geology", "astronomy",
    "mathematics", "engineering", "ecology",
)
_EXTRA_ELEMENTS = ("audience", "educationLevel", "interactivityType")


@dataclass(frozen=True)
class CorpusProfile:
    resources: int
    aggregations: int | None = None  # default max(1, resources // 1000)
    agents: int = 10
    seed: int = 0

    @property
    def aggregation_count(self) -> int:
        if self.aggregations is not None:
            return max(1, self.aggregations)
        return max(1, self.resources // 1000)

    @property
    def metadata_count(self) -> int:
        return self.resources * 3 // 4


@dataclass(frozen=True)
class CorpusStats:
    resources: int
    metadata: int
    aggregations: int
    agents: int


def resource_url(profile: CorpusProfile, i: int) -> str:
    return f"http://corpus.local/{profile.seed}/{i}"


def nsdl_dc_document(rng: random.Random, url: str, i: int) -> bytes:
    """Flat nsdl_dc record: a handful of DC elements plus occasional extras."""
    lines = ["<nsdl_dc>"]
    lines.append(f"  <title>Synthetic resource {i}</title>")
    lines.append(f"  <identifier>{escape(url)}</identifier>")
    lines.append(f"  <subject>{rng.choice(_SUBJECTS)}</subject>")
    if rng.random() < 0.5:
        lines.append(f"  <description>Generated record number {i}</description>")
    if rng.random() < 0.4:
        extra = rng.choice(_EXTRA_ELEMENTS)
        lines.append(f"  <{extra}>value-{rng.randrange(10)}</{extra}>")
    lines.append("</nsdl_dc>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def generate_corpus(repo: Repository, profile: CorpusProfile) -> CorpusStats:
    if repo.store.count() != 0:
        raise NotEmpty("corpus generation requires an empty repository")
    rng = random.Random(profile.seed)

    agent_ids = [
        repo.add_agent(f"agent-{i}", ("Person", "Organization", "Service")[i % 3])
        for i in range(profile.agents)
    ]
    agg_ids = []
    for j in range(profile.aggregation_count):
        agent = agent_ids[j % len(agent_ids)]
        agg_ids.append(
            repo.create_aggregation(
                agent,
                ResourceSpec(
                    content_url=f"http://corpus.local/{profile.seed}/agg/{j}"
                ),
            )
        )

    def pick_aggs():
        k = rng.randint(1, min(3, len(agg_ids)))
        return frozenset(rng.sample(agg_ids, k))

    resource_ids = []
    for i in range(profile.resources):
        resource_ids.append(
            repo.add_resource(
                ResourceSpec(
                    content_url=resource_url(profile, i),
                    initial_aggregations=pick_aggs(),
                )
            )
        )
    for i in range(profile.metadata_count):
        url = resource_url(profile, i)
        repo.add_metadata(
            MetadataSpec(
                target=resource_ids[i],
                format_id="nsdl_dc",
                payload=nsdl_dc_document(rng, url, i),
                provider=agent_ids[i % len(agent_ids)],
                initial_aggregations=pick_aggs(),
            )
        )
    return CorpusStats(
        resources=profile.resources,
        metadata=profile.metadata_count,
        aggregations=len(agg_ids),
        agents=len(agent_ids),
    )
