"""Seeded input generators, one per workload.

Each generator returns plain data (no varlex objects), so the package under
test sees only the files written from it: a PubTator input corpus, a
PubTator corpus of planted gold annotations, and, where the workload needs
them, a knowledge-base TSV and a gene list.

A document is ``(doc_id, title, abstract, annotations)``; an annotation is
``(start, end, text, label, norm_id)`` with UTF-8 byte offsets into
``title + " " + abstract``, exactly as PubTator stores them.  Gold ids are
planted only for forms the knowledge base backs (ClinGen or dbSNP ids).  A
mention's intended id is the best id of the KB record it names when its
document states that record's full allele somewhere; otherwise (an rs
number or a bare "codon X123" alone) it is the bare rs number, since the
paper's id ladder gives incomplete forms no allele-level id.
"""

from __future__ import annotations

import random

# -- shared helpers -----------------------------------------------------------

_AA1 = "ACDEFGHIKLMNPQRSTVWY"
_AA3 = {
    "A": "Ala", "C": "Cys", "D": "Asp", "E": "Glu", "F": "Phe",
    "G": "Gly", "H": "His", "I": "Ile", "K": "Lys", "L": "Leu",
    "M": "Met", "N": "Asn", "P": "Pro", "Q": "Gln", "R": "Arg",
    "S": "Ser", "T": "Thr", "V": "Val", "W": "Trp", "Y": "Tyr",
}
_BASES = "ACGT"


class _DocWriter:
    """Appends text pieces to an abstract and records planted mentions.

    Offsets are kept in UTF-8 bytes of ``title + " " + abstract``.
    """

    def __init__(self, doc_id: str, title: str):
        self.doc_id = doc_id
        self.title = title
        self.pieces: list[str] = []
        self.pos = len(title.encode("utf-8")) + 1
        self.size = 0
        # (start, end, text, label, record) before ids are decided.
        self.mentions: list[tuple[int, int, str, str, object]] = []
        # Byte spans of plain filler words, usable as spurious predictions.
        self.words: list[tuple[int, int, str]] = []

    def text(self, piece: str) -> None:
        self.pieces.append(piece)
        n = len(piece.encode("utf-8"))
        self.pos += n
        self.size += n

    def word(self, piece: str) -> None:
        start = self.pos
        self.text(piece)
        self.words.append((start, self.pos, piece))

    def mention(self, piece: str, label: str, record=None) -> None:
        start = self.pos
        self.text(piece)
        self.mentions.append((start, self.pos, piece, label, record))

    @property
    def abstract(self) -> str:
        return "".join(self.pieces)


# Labels of forms that state a full allele; only these reach allele-level ids.
_COMPLETE_LABELS = frozenset({"ProteinMutation", "DNAMutation"})


def _intended_ids(mentions) -> list[tuple[int, int, str, str, str]]:
    """Planted annotations with the id each KB-backed mention should get."""
    described = {
        id(rec) for _, _, _, label, rec in mentions
        if rec is not None and label in _COMPLETE_LABELS
    }
    out = []
    for start, end, text, label, rec in mentions:
        if rec is None:
            norm = ""
        elif id(rec) not in described:
            norm = rec["rsid"]
        else:
            norm = _best_id(rec)
        out.append((start, end, text, label, norm))
    return out


def _best_id(rec: dict) -> str:
    if rec["ca_id"]:
        return rec["ca_id"]
    if rec["ref"] and rec["alt"]:
        return f"{rec['rsid']}({rec['ref']}>{rec['alt']})"
    return rec["rsid"]


def pubtator_text(docs) -> str:
    """PubTator serialization, in the byte layout varlex writes."""
    out = []
    for doc_id, title, abstract, annotations in docs:
        out.append(f"{doc_id}|t|{title}\n{doc_id}|a|{abstract}\n")
        for start, end, text, label, norm in annotations:
            cols = [doc_id, str(start), str(end), text, label]
            if norm:
                cols.append(norm)
            out.append("\t".join(cols) + "\n")
        out.append("\n")
    return "".join(out)


def bare(docs):
    return [(d[0], d[1], d[2], ()) for d in docs]


# -- synthetic knowledge base and lexicon --------------------------------------

KB_HEADER = "rsid\tca_id\tgene\tdna_hgvs\tprotein_hgvs\tref\talt\n"

# Prefixes that other grammar rules or id formats could read as something
# other than a gene symbol.
_RESERVED_PREFIXES = ("RS", "CA", "CHR", "NM", "NC", "NG", "NP", "NR", "XM", "XR")


def synthetic_lexicon(rng: random.Random, n_symbols: int) -> list[str]:
    """Distinct gene-like symbols: three to five capitals and one digit."""
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    symbols: set[str] = set()
    while len(symbols) < n_symbols:
        stem = "".join(rng.choice(letters) for _ in range(rng.randint(3, 5)))
        if stem.startswith(_RESERVED_PREFIXES):
            continue
        symbols.add(stem + rng.choice("123456789"))
    return sorted(symbols)


def synthetic_kb(
    rng: random.Random, genes: list[str], n_rows: int
) -> list[dict]:
    """KB rows with unique rs and CA numbers and unique (gene, form) keys.

    About 70% of rows carry a ClinGen id.  No two rows of one gene share a
    DNA form or a protein position, so every gene-scoped lookup, including
    the prefix lookup of a bare "codon X123", has one answer.
    """
    rsids = rng.sample(range(1_000_000, 200_000_000), n_rows)
    caids = rng.sample(range(100_000, 9_000_000), n_rows)
    used_dna: set[tuple[str, str]] = set()
    used_pos: set[tuple[str, int]] = set()
    rows = []
    i = 0
    while len(rows) < n_rows:
        gene = genes[i % len(genes)]
        i += 1
        pos = rng.randint(1, 9000)
        ppos = rng.randint(1, 3000)
        ref, alt = rng.sample(_BASES, 2)
        wt, mut = rng.sample(_AA1, 2)
        dna = f"c.{pos}{ref}>{alt}"
        if (gene, dna) in used_dna or (gene, ppos) in used_pos:
            continue
        used_dna.add((gene, dna))
        used_pos.add((gene, ppos))
        k = len(rows)
        rows.append({
            "rsid": f"rs{rsids[k]}",
            "ca_id": f"CA{caids[k]}" if rng.random() < 0.7 else "",
            "gene": gene,
            "dna": dna,
            "wt": wt,
            "ppos": ppos,
            "mut": mut,
            "ref": ref,
            "alt": alt,
        })
    return rows


def kb_text(rows: list[dict]) -> str:
    lines = [KB_HEADER]
    for r in rows:
        lines.append(
            f"{r['rsid']}\t{r['ca_id']}\t{r['gene']}\t{r['dna']}\t"
            f"p.{r['wt']}{r['ppos']}{r['mut']}\t{r['ref']}\t{r['alt']}\n"
        )
    return "".join(lines)


def genes_text(genes: list[str]) -> str:
    return "".join(g + "\n" for g in genes)


# -- abstracts: the acceptance suite's criterion-9 corpus ------------------------

# The bundled five-row KB and six-gene lexicon the acceptance suite uses.
BUNDLED_KB = (
    KB_HEADER
    + "rs113488022\tCA123643\tBRAF\tc.1799T>A\tp.V600E\tT\tA\n"
    + "rs121912637\t\tTRPV4\t\tp.P799L\t\t\n"
    + "rs763780\tCA2194045\tIL17F\tc.482A>G\tp.H161R\tA\tG\n"
    + "rs121913529\tCA123644\tKRAS\tc.35G>A\tp.G12D\tG\tA\n"
    + "\tCA555555\tTP53\tc.524G>A\tp.R175H\tG\tA\n"
)
BUNDLED_GENES = "BRAF\nKRAS\nTP53\nTRPV4\nIL17F\nEGFR\n"

ABSTRACT_SENTENCES = [
    "BRAF V600E remained the most common event",
    "we confirmed c.1799T>A by Sanger sequencing",
    "rs113488022 was imputed with high confidence",
    "KRAS G12D co-occurred in two cases",
    "a 306 base pair insertion disrupted splicing",
    "the 10q11.12 band showed copy gain",
    "deletion of chr7:156583796-156584569 was focal",
    "no pathogenic variant was detected in controls",
    "expression of the mutant allele varied",
    "p.Gln659Leu was classified as likely pathogenic",
    "the cohort comprised archival specimens",
    "findings were replicated in an independent series",
]

_BRAF = {"rsid": "rs113488022", "ca_id": "CA123643", "ref": "T", "alt": "A"}
_KRAS = {"rsid": "rs121913529", "ca_id": "CA123644", "ref": "G", "alt": "A"}

# Planted mentions per sentence: (offset in sentence, surface, label, record).
_ABSTRACT_GOLD = {
    0: [(5, "V600E", "ProteinMutation", _BRAF)],
    1: [(13, "c.1799T>A", "DNAMutation", _BRAF)],
    2: [(0, "rs113488022", "SNP", _BRAF)],
    3: [(5, "G12D", "ProteinMutation", _KRAS)],
    4: [(2, "306 base pair insertion", "OtherMutation", None)],
    5: [(4, "10q11.12", "Chromosome", None)],
    6: [(0, "deletion of chr7:156583796-156584569", "CopyNumberVariant", None)],
    9: [(0, "p.Gln659Leu", "ProteinMutation", None)],
}


def abstracts(n_docs: int, seed: int):
    """Criterion 9's corpus: with seed 99 the text equals the acceptance
    suite's ``_throughput_corpus``; the planted gold rides alongside."""
    rng = random.Random(seed)
    docs = []
    for i in range(n_docs):
        title = f"Synthetic abstract {i}."
        parts = []
        size = 0
        while size < 1400:
            s = rng.choice(ABSTRACT_SENTENCES)
            parts.append(s)
            size += len(s) + 2
        abstract = ". ".join(parts) + "."
        mentions = []
        offset = len(title) + 1
        for part in parts:
            for at, surface, label, rec in _ABSTRACT_GOLD.get(
                ABSTRACT_SENTENCES.index(part), ()
            ):
                mentions.append(
                    (offset + at, offset + at + len(surface), surface, label, rec)
                )
            offset += len(part) + 2
        docs.append((f"t{i}", title, abstract, _intended_ids(mentions)))
    return docs


# -- prose for pubmed_sparse and evaluate ------------------------------------------

_SUBJECTS = [
    "Patients", "The cohort", "Müller et al.", "Carriers", "Controls",
    "Naïve T cells", "Primary fibroblasts", "Ångström-scale models",
    "The validation series", "Cultured organoids", "Tissue microarrays",
]
_VERBS = [
    "showed", "displayed", "were associated with", "exhibited",
    "correlated with", "did not show", "revealed", "reported",
]
_OBJECTS = [
    "reduced α-synuclein aggregation", "elevated β-catenin signalling",
    "TNF-α release", "lower survival", "a modest response to therapy",
    "increased IL-6 levels", "γ-secretase activity",
    "altered mitochondrial respiration", "stable disease",
    "heterogeneous outcomes", "a dose–response relation",
]
_TAILS = [
    "in the discovery set", "after adjustment for age and sex",
    "across both centres", "at 10 µM", "within the follow-up window",
    "in two independent cohorts", "compared with controls",
    "at the 12–24 month visit", "under hypoxic conditions",
]


def _filler_sentence(rng: random.Random, b: _DocWriter, genes: list[str]) -> None:
    """One sentence of prose with no variant mention.  Every word is kept
    as a candidate span for spurious predictions."""
    b.word(rng.choice(_SUBJECTS))
    b.text(" ")
    b.word(rng.choice(_VERBS))
    b.text(" ")
    b.word(rng.choice(_OBJECTS))
    if genes and rng.random() < 0.5:
        b.text(" of ")
        b.word(rng.choice(genes))
    b.text(" ")
    b.word(rng.choice(_TAILS))
    b.text(f" (n = {rng.randint(8, 400)}; ")
    b.word(f"μ = {rng.randint(1, 9)}.{rng.randint(0, 9)} ± 0.{rng.randint(1, 9)}")
    b.text("). ")


def _variant_sentence(rng: random.Random, b: _DocWriter, rec: dict) -> None:
    """One sentence naming a KB record in one of three spellings, with its
    gene in the same sentence."""
    gene = rec["gene"]
    form = rng.randrange(3)
    if form == 0:
        b.text(f"{gene} ")
        b.mention(f"{rec['wt']}{rec['ppos']}{rec['mut']}", "ProteinMutation", rec)
        b.text(f" was detected in {rng.randint(2, 40)} tumours. ")
    elif form == 1:
        b.text("We genotyped ")
        b.mention(rec["rsid"], "SNP", rec)
        b.text(f" at the {gene} locus. ")
    else:
        b.text(f"The {gene} variant ")
        b.mention(rec["dna"], "DNAMutation", rec)
        b.text(" segregated with disease. ")


def _prose_title(rng: random.Random) -> str:
    return (
        f"{rng.choice(_SUBJECTS)} {rng.choice(_VERBS)} "
        f"{rng.choice(_OBJECTS)} {rng.choice(_TAILS)}."
    )


def pubmed_sparse(n_docs: int, seed: int, kb_rows: list[dict],
                  genes: list[str]):
    """~1.4 KB non-ASCII prose abstracts; about one in ten names one to
    three KB records, the rest name none."""
    rng = random.Random(seed)
    docs = []
    for i in range(n_docs):
        b = _DocWriter(f"s{i}", _prose_title(rng))
        variant_slots = set()
        if rng.random() < 0.1:
            variant_slots = set(rng.sample(range(8), rng.randint(1, 3)))
        slot = 0
        while b.size < 1400:
            if slot in variant_slots:
                _variant_sentence(rng, b, rng.choice(kb_rows))
            else:
                _filler_sentence(rng, b, genes)
            slot += 1
        docs.append((
            b.doc_id, b.title, b.abstract.rstrip(),
            _intended_ids(b.mentions),
        ))
    return docs


# -- fulltext ----------------------------------------------------------------------

def _dense_sentence(rng: random.Random, b: _DocWriter, rec: dict) -> None:
    """Mention-dense sentence over the seven spellings of one record: gene
    plus protein, DNA HGVS, rs number, fused gene+protein, three-letter
    protein, bare position and bare change."""
    g = rec["gene"]
    p1 = f"{rec['wt']}{rec['ppos']}{rec['mut']}"
    p3 = f"p.{_AA3[rec['wt']]}{rec['ppos']}{_AA3[rec['mut']]}"
    form = rng.randrange(4)
    if form == 0:
        b.text(f"{g} ")
        b.mention(p1, "ProteinMutation", rec)
        b.text(" (")
        b.mention(rec["dna"], "DNAMutation", rec)
        b.text("; ")
        b.mention(rec["rsid"], "SNP", rec)
        b.text(") recurred. ")
    elif form == 1:
        b.text(g)
        b.mention(p1, "ProteinMutation", rec)
        b.text(f" and {g} ")
        b.mention(p3, "ProteinMutation", rec)
        b.text(" co-segregated. ")
    elif form == 2:
        b.text(f"In {g}, codon ")
        b.mention(f"{rec['wt']}{rec['ppos']}", "ProteinAllele", rec)
        b.text(" carried ")
        b.mention(f"{rec['ref']}>{rec['alt']}", "DNAChange", None)
        b.text(" changes. ")
    else:
        b.mention(rec["rsid"], "SNP", rec)
        b.text(f" tagged {g} ")
        b.mention(p1, "ProteinMutation", rec)
        b.text(". ")


def fulltext_size(i: int) -> int:
    """Target bytes of document ``i``: 20 to 45 KB, spread evenly over any
    run of consecutive documents (golden-ratio sequence), so every run
    sees the same mix of sizes whatever the seed."""
    return int(20_000 + 25_000 * ((i * 0.6180339887498949) % 1.0))


def fulltext(n_docs: int, seed: int, kb_rows: list[dict], genes: list[str]):
    """Full-text-sized documents, each naming 20-40 KB records many times."""
    rng = random.Random(seed)
    docs = []
    for i in range(n_docs):
        b = _DocWriter(f"f{i}", _prose_title(rng))
        records = rng.sample(kb_rows, rng.randint(20, 40))
        target = fulltext_size(i)
        while b.size < target:
            if rng.random() < 0.35:
                _dense_sentence(rng, b, rng.choice(records))
            else:
                _filler_sentence(rng, b, [])
        docs.append((
            b.doc_id, b.title, b.abstract.rstrip(),
            _intended_ids(b.mentions),
        ))
    return docs


# -- evaluate -------------------------------------------------------------------------

_EVAL_LABELS = ("ProteinMutation", "DNAMutation", "SNP", "ProteinAllele")


def evaluate_corpora(n_docs: int, seed: int):
    """An annotated non-ASCII gold corpus, a prediction corpus derived from
    it by seeded perturbations, and the TP/FP/FN counts per document and
    mode that those perturbations imply.

    Within a document every gold span and every gold id is distinct, so
    each perturbation moves the counts by a fixed amount (the id column
    only when the annotation carries an id):

    ========  ======================  ======================  =============
    kind      span                    type                    id
    ========  ======================  ======================  =============
    drop      FN+1                    FN+1                    FN+1
    shrink    FN+1, FP+1              FN+1, FP+1              --
    relabel   --                      FN+1, FP+1              --
    re-id     --                      --                      FN+1, FP+1
    spurious  FP+1                    FP+1                    FP+1
    ========  ======================  ======================  =============
    """
    rng = random.Random(seed)
    gold_docs, pred_docs, expected = [], [], []
    next_id = 1
    for i in range(n_docs):
        b = _DocWriter(f"e{i}", _prose_title(rng))
        while b.size < 6000:
            if rng.random() < 0.7:
                gene = f"GEN{rng.randint(1, 99)}"
                b.text(f"{gene} ")
                pos = rng.randint(1, 3000)
                wt, mut = rng.sample(_AA1, 2)
                b.mention(f"{wt}{pos}{mut}", rng.choice(_EVAL_LABELS))
                b.text(f" was seen in {rng.randint(2, 30)} cases. ")
            else:
                _filler_sentence(rng, b, [])
        gold = []
        for start, end, text, label, _ in b.mentions:
            norm = ""
            if rng.random() < 0.8:
                norm = f"CA{next_id}"
                next_id += 1
            gold.append((start, end, text, label, norm))
        full = b.title + " " + b.abstract.rstrip()
        pred, counts = _perturb(rng, full, gold, b.words)
        # Fresh ids for re-id and spurious predictions come after the gold ids.
        renumbered = []
        for start, end, text, label, norm in pred:
            if norm == "?":
                norm = f"CA{next_id}"
                next_id += 1
            renumbered.append((start, end, text, label, norm))
        abstract = b.abstract.rstrip()
        gold_docs.append((b.doc_id, b.title, abstract, tuple(gold)))
        pred_docs.append((b.doc_id, b.title, abstract, tuple(renumbered)))
        expected.append(counts)
    return gold_docs, pred_docs, expected


def _perturb(rng, full_text, gold, words):
    """Apply at most one perturbation per gold annotation, plus spurious
    annotations on filler words; return predictions and implied counts
    as {mode: [tp, fp, fn]}."""
    counts = {"span": [0, 0, 0], "type": [0, 0, 0], "id": [0, 0, 0]}
    pred = []
    encoded = full_text.encode("utf-8")
    for start, end, text, label, norm in gold:
        roll = rng.random()
        if roll < 0.05:  # drop
            counts["span"][2] += 1
            counts["type"][2] += 1
            if norm:
                counts["id"][2] += 1
            continue
        if roll < 0.10:  # shrink: drop the first character
            first = encoded[start:end].decode("utf-8")[0]
            new_start = start + len(first.encode("utf-8"))
            new_text = encoded[new_start:end].decode("utf-8")
            pred.append((new_start, end, new_text, label, norm))
            for mode in ("span", "type"):
                counts[mode][1] += 1
                counts[mode][2] += 1
            if norm:
                counts["id"][0] += 1
            continue
        if roll < 0.15:  # relabel
            other = [x for x in _EVAL_LABELS if x != label][rng.randrange(3)]
            pred.append((start, end, text, other, norm))
            counts["span"][0] += 1
            counts["type"][1] += 1
            counts["type"][2] += 1
            if norm:
                counts["id"][0] += 1
            continue
        if roll < 0.20 and norm:  # re-id
            pred.append((start, end, text, label, "?"))
            counts["span"][0] += 1
            counts["type"][0] += 1
            counts["id"][1] += 1
            counts["id"][2] += 1
            continue
        pred.append((start, end, text, label, norm))
        counts["span"][0] += 1
        counts["type"][0] += 1
        if norm:
            counts["id"][0] += 1
    for start, end, text in rng.sample(words, min(len(words), rng.randint(0, 2))):
        norm = "?" if rng.random() < 0.5 else ""
        pred.append((start, end, text, "DNAChange", norm))
        counts["span"][1] += 1
        counts["type"][1] += 1
        if norm:
            counts["id"][1] += 1
    pred.sort()
    return pred, counts
