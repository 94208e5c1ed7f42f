"""On-disk formats for the synthetic bioinformatics data.

The paper's datasets (``fourCelFileSamples.zip``, ``affyCelFileSamples.zip``,
BAM files) are proprietary-instrument outputs we cannot ship, so we use
*generative archives*: a small JSON descriptor carrying a seed and the
planted biological signal.  Loading an archive deterministically
regenerates the full numeric data, so tools compute on real matrices while
files stay small; the archive's *declared* size (what transfer tools and
work models see) matches the paper's dataset sizes.

Formats:

* **CEL archive** — N microarray samples × P probe sets, two groups, with
  ``n_diff`` probes planted as differentially expressed at ``effect``
  log2-fold-change.
* **Expression matrix** — TSV with a ``#groups:`` annotation line.
* **BAM-sim archive** — reads drawn over a transcript annotation with
  per-transcript abundances; two-condition archives plant differential
  transcripts.
* **Transcript annotation** — TSV of (name, chrom, start, end).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np


class FormatError(Exception):
    pass


# ---------------------------------------------------------------------------
# CEL archives
# ---------------------------------------------------------------------------


@dataclass
class CelArchive:
    """Descriptor of a bundle of synthetic Affymetrix CEL files."""

    n_arrays: int
    n_probes: int
    seed: int
    groups: list[str]                  # per-array group label, len == n_arrays
    n_diff: int = 0                    # planted differentially expressed probes
    effect: float = 1.5                # log2 fold change of planted probes
    array_names: list[str] = field(default_factory=list)
    declared_size: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.groups) != self.n_arrays:
            raise FormatError("groups must have one label per array")
        if self.n_diff > self.n_probes:
            raise FormatError("cannot plant more differential probes than probes")
        if not self.array_names:
            self.array_names = [
                f"sample_{i + 1:02d}.CEL" for i in range(self.n_arrays)
            ]

    # -- serialisation --------------------------------------------------------
    def to_bytes(self) -> bytes:
        doc = {
            "format": "cel-archive-v1",
            "n_arrays": self.n_arrays,
            "n_probes": self.n_probes,
            "seed": self.seed,
            "groups": self.groups,
            "n_diff": self.n_diff,
            "effect": self.effect,
            "array_names": self.array_names,
            "declared_size": self.declared_size,
        }
        return json.dumps(doc).encode()

    @classmethod
    def from_bytes(cls, data: bytes) -> "CelArchive":
        try:
            doc = json.loads(data.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"not a CEL archive: {exc}") from exc
        if doc.get("format") != "cel-archive-v1":
            raise FormatError(f"not a CEL archive (format={doc.get('format')!r})")
        return cls(
            n_arrays=doc["n_arrays"],
            n_probes=doc["n_probes"],
            seed=doc["seed"],
            groups=list(doc["groups"]),
            n_diff=doc.get("n_diff", 0),
            effect=doc.get("effect", 1.5),
            array_names=list(doc.get("array_names", [])),
            declared_size=doc.get("declared_size"),
        )

    # -- data regeneration -------------------------------------------------------
    def probe_names(self) -> list[str]:
        return [f"probe_{i:05d}_at" for i in range(self.n_probes)]

    def planted_probes(self) -> np.ndarray:
        """Indices of the probes carrying the planted signal."""
        rng = np.random.default_rng(self.seed)
        return rng.choice(self.n_probes, size=self.n_diff, replace=False)

    def intensities(self) -> np.ndarray:
        """Raw probe intensities, shape (n_probes, n_arrays).

        Log-normal background (mean log2 intensity ~ 7, sd 1) with
        per-array multiplicative scaling (what normalization must remove)
        and the planted effect added to group-2 arrays.
        """
        rng = np.random.default_rng(self.seed)
        base = rng.normal(7.0, 1.0, size=(self.n_probes, 1))
        noise = rng.normal(0.0, 0.35, size=(self.n_probes, self.n_arrays))
        log2 = base + noise
        # per-array technical scale factors
        scale = rng.normal(0.0, 0.25, size=(1, self.n_arrays))
        log2 = log2 + scale
        if self.n_diff:
            planted = self.planted_probes()
            labels = self.group_labels()
            group2 = np.array([g == labels[1] for g in self.groups])
            signs = np.where(
                rng.random(self.n_diff) < 0.5, 1.0, -1.0
            )  # up and down regulation
            log2[np.ix_(planted, np.where(group2)[0])] += (
                signs[:, None] * self.effect
            )
        return np.exp2(log2)

    def group_labels(self) -> list[str]:
        """Distinct group labels in first-appearance order."""
        seen: list[str] = []
        for g in self.groups:
            if g not in seen:
                seen.append(g)
        return seen

    def group_masks(self) -> dict[str, np.ndarray]:
        return {
            label: np.array([g == label for g in self.groups])
            for label in self.group_labels()
        }


# ---------------------------------------------------------------------------
# Expression matrices
# ---------------------------------------------------------------------------


@dataclass
class ExpressionMatrix:
    """A probes × samples matrix with group annotations.

    A matrix decoded from a CEL archive shares its read-only ``values``
    and tuple annotations with every other decode of the same payload.
    """

    values: np.ndarray          # shape (n_probes, n_samples), log2 scale
    probe_names: Sequence[str]
    sample_names: Sequence[str]
    groups: Sequence[str]

    def __post_init__(self) -> None:
        p, s = self.values.shape
        if len(self.probe_names) != p:
            raise FormatError("probe_names length mismatch")
        if len(self.sample_names) != s or len(self.groups) != s:
            raise FormatError("sample annotation length mismatch")

    def to_bytes(self) -> bytes:
        lines = ["#groups: " + "\t".join(self.groups)]
        lines.append("probe\t" + "\t".join(self.sample_names))
        for name, row in zip(self.probe_names, self.values):
            lines.append(name + "\t" + "\t".join(f"{v:.6g}" for v in row))
        return ("\n".join(lines) + "\n").encode()

    @classmethod
    def from_bytes(cls, data: bytes) -> "ExpressionMatrix":
        try:
            text = data.decode()
        except UnicodeDecodeError as exc:
            raise FormatError("not an expression matrix") from exc
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) < 3 or not lines[0].startswith("#groups:"):
            raise FormatError("expression matrix needs a #groups line and data")
        groups = lines[0][len("#groups:"):].strip().split("\t")
        header = lines[1].split("\t")
        if header[0] != "probe":
            raise FormatError("expression matrix header must start with 'probe'")
        sample_names = header[1:]
        probe_names: list[str] = []
        rows: list[list[float]] = []
        for ln in lines[2:]:
            parts = ln.split("\t")
            if len(parts) != len(sample_names) + 1:
                raise FormatError(f"row width mismatch: {parts[0]}")
            probe_names.append(parts[0])
            rows.append([float(x) for x in parts[1:]])
        return cls(
            values=np.asarray(rows, dtype=float),
            probe_names=probe_names,
            sample_names=sample_names,
            groups=groups,
        )

    def group_masks(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for label in dict.fromkeys(self.groups):
            out[label] = np.array([g == label for g in self.groups])
        return out


# ---------------------------------------------------------------------------
# Transcript annotation + BAM-sim archives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transcript:
    name: str
    chrom: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise FormatError(f"transcript {self.name}: end <= start")

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass
class TranscriptAnnotation:
    """A UCSC-browser-style transcript table."""

    transcripts: list[Transcript]

    def to_bytes(self) -> bytes:
        lines = ["#name\tchrom\tstart\tend"]
        for t in self.transcripts:
            lines.append(f"{t.name}\t{t.chrom}\t{t.start}\t{t.end}")
        return ("\n".join(lines) + "\n").encode()

    @classmethod
    def from_bytes(cls, data: bytes) -> "TranscriptAnnotation":
        lines = [ln for ln in data.decode().splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("#name"):
            raise FormatError("not a transcript annotation")
        out = []
        for ln in lines[1:]:
            name, chrom, start, end = ln.split("\t")
            out.append(Transcript(name=name, chrom=chrom, start=int(start), end=int(end)))
        return cls(out)

    @classmethod
    def synthetic(
        cls, n_transcripts: int = 200, seed: int = 0, chrom: str = "chr1",
        mean_length: int = 2000, gap: int = 500,
    ) -> "TranscriptAnnotation":
        rng = np.random.default_rng(seed)
        lengths = np.maximum(
            200, rng.normal(mean_length, mean_length / 4, n_transcripts).astype(int)
        )
        gaps = np.maximum(0, rng.normal(gap, gap / 3, n_transcripts).astype(int))
        starts = np.cumsum(gaps + np.concatenate([[0], lengths[:-1]]))
        return cls(
            [
                Transcript(
                    name=f"tx_{i:04d}", chrom=chrom,
                    start=int(s), end=int(s + L),
                )
                for i, (s, L) in enumerate(zip(starts, lengths))
            ]
        )


@dataclass
class BamArchive:
    """Descriptor of synthetic aligned reads over a transcript annotation.

    ``conditions`` maps sample name -> condition label; per-transcript
    abundances are drawn from the seed, and ``n_diff`` transcripts get an
    abundance fold change of ``effect`` in the second condition.
    """

    n_reads_per_sample: int
    seed: int
    samples: list[str]
    conditions: list[str]
    annotation_seed: int = 0
    n_transcripts: int = 200
    n_diff: int = 0
    effect: float = 2.0
    read_length: int = 75
    declared_size: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.samples) != len(self.conditions):
            raise FormatError("one condition per sample required")

    def to_bytes(self) -> bytes:
        doc = {
            "format": "bam-sim-v1",
            "n_reads_per_sample": self.n_reads_per_sample,
            "seed": self.seed,
            "samples": self.samples,
            "conditions": self.conditions,
            "annotation_seed": self.annotation_seed,
            "n_transcripts": self.n_transcripts,
            "n_diff": self.n_diff,
            "effect": self.effect,
            "read_length": self.read_length,
            "declared_size": self.declared_size,
        }
        return json.dumps(doc).encode()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BamArchive":
        try:
            doc = json.loads(data.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"not a BAM-sim archive: {exc}") from exc
        if doc.get("format") != "bam-sim-v1":
            raise FormatError("not a BAM-sim archive")
        return cls(
            n_reads_per_sample=doc["n_reads_per_sample"],
            seed=doc["seed"],
            samples=list(doc["samples"]),
            conditions=list(doc["conditions"]),
            annotation_seed=doc.get("annotation_seed", 0),
            n_transcripts=doc.get("n_transcripts", 200),
            n_diff=doc.get("n_diff", 0),
            effect=doc.get("effect", 2.0),
            read_length=doc.get("read_length", 75),
            declared_size=doc.get("declared_size"),
        )

    def annotation(self) -> TranscriptAnnotation:
        return TranscriptAnnotation.synthetic(
            n_transcripts=self.n_transcripts, seed=self.annotation_seed
        )

    def condition_labels(self) -> list[str]:
        return list(dict.fromkeys(self.conditions))

    def planted_transcripts(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.choice(self.n_transcripts, size=self.n_diff, replace=False)

    def abundances(self) -> np.ndarray:
        """Relative transcript abundances, shape (n_transcripts, n_samples)."""
        rng = np.random.default_rng(self.seed)
        rng.choice(self.n_transcripts, size=self.n_diff, replace=False)  # align stream
        base = rng.lognormal(mean=0.0, sigma=1.0, size=self.n_transcripts)
        ab = np.tile(base[:, None], (1, len(self.samples))).astype(float)
        if self.n_diff:
            planted = self.planted_transcripts()
            labels = self.condition_labels()
            cond2 = np.array([c == labels[-1] for c in self.conditions])
            ab[np.ix_(planted, np.where(cond2)[0])] *= self.effect
        # biological noise
        ab *= rng.lognormal(0.0, 0.1, size=ab.shape)
        return ab

    def read_starts(self, sample_index: int) -> np.ndarray:
        """Aligned read start positions for one sample (sorted)."""
        ann = self.annotation()
        ab = self.abundances()[:, sample_index]
        # expected reads per transcript ~ abundance * length
        lengths = np.array([t.length for t in ann.transcripts], dtype=float)
        weights = ab * lengths
        weights /= weights.sum()
        rng = np.random.default_rng((self.seed + 1) * 1000003 + sample_index)
        counts = rng.multinomial(self.n_reads_per_sample, weights)
        starts = []
        for t, c in zip(ann.transcripts, counts):
            if c:
                span = max(1, t.length - self.read_length)
                starts.append(t.start + rng.integers(0, span, size=c))
        if not starts:
            return np.empty(0, dtype=int)
        return np.sort(np.concatenate(starts))


def sniff(data: bytes) -> str:
    """Identify which format a payload is ("cel", "bam", "matrix", ...)."""
    head = data[:512]
    if head.lstrip().startswith(b"{"):
        try:
            doc = json.loads(data.decode())
            fmt = doc.get("format", "")
            if fmt.startswith("cel-archive"):
                return "cel"
            if fmt.startswith("bam-sim"):
                return "bam"
        except (UnicodeDecodeError, json.JSONDecodeError):
            return "unknown"
        return "unknown"
    if head.startswith(b"#groups:"):
        return "matrix"
    if head.startswith(b"#name\tchrom"):
        return "annotation"
    return "unknown"
