"""
Normalizing mentions to database identifiers
============================================

"""

# Normalization maps a recognized mention to the most specific identifier
# the knowledge base supports, walking down a preference ladder:
# ClinGen allele id, then rsID with alleles, then bare rsID, then a
# gene-anchored HGVS string, and finally "-" for no identifier at all.
import pathlib

from varlex import (
    KnowledgeBase,
    NormalizationPolicy,
    Recognizer,
    load_kb,
    normalize,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"
kb = load_kb(str(DATA / "kb_braf.tsv"))

recognizer = Recognizer()
mention = recognizer.recognize("the c.1799T>A substitution")[0]

# The full ladder, one rung at a time.  Normalization reads the gene from
# the mention; the pipeline fills it in from the surrounding text.
mention.gene_context = "BRAF"
for names in ("caid", "rs_allele", "rsid", "gene"):
    policy = NormalizationPolicy.from_string(names)
    result = normalize(mention, kb, policy=policy)
    print(f"{names:>9}: {result.render()}")

# With no knowledge base and no gene context there is nothing to say.
mention.gene_context = None
print(f"   bottom: {normalize(mention, KnowledgeBase(())).render()}")

# Incomplete mentions never receive allele-specific identifiers.  P799
# names a position, not an exchange, so the walk stops at the rsID even
# though the KB row carries one.
partial = recognizer.recognize("a change at P799")[0]
partial.gene_context = "TRPV4"
result = normalize(partial, kb)
print(f"\nP799 with TRPV4 context: {result.render()}")

# Gene context comes from three places, in order: a fused-token hint, the
# nearest gene mention in the same sentence, the nearest preceding gene
# mention anywhere.  The pipeline (demo 04) wires this up automatically.
