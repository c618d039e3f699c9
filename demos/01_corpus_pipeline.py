"""Walk the corpus pipeline end to end on a small synthetic corpus.

Generates scenes, shows the keyword classifier on a few hand-written
questions, then reformats the corpus into the combined multi-question
form, the flattened single-question form, and the isolated-slot form.
"""

from mtvqa.corpus import (
    SyntheticSceneConfig,
    classify_question,
    corpus_stats,
    default_keyword_config,
    flatten_single_task,
    gen_synthetic_corpus,
    group_by_image,
    isolate_slots,
    reformat_multitask,
)
from mtvqa.corpus.parsing import tokenize

print("== keyword classification (priority order: size, count, position, colour) ==")
kw = default_keyword_config()
for text in ("how many orange balls are on the table",
             "what are on the wall on the left side of the green curtain",
             "what is the largest red object",
             "which object is more"):
    qtype = classify_question(tokenize(text), kw)
    print(f"  {text!r:70s} -> {qtype.value if qtype else 'unclassified'}")

print("\n== synthetic corpus ==")
cfg = SyntheticSceneConfig(num_images=50, noise_std=0.1, seed=7)
questions, features = gen_synthetic_corpus(cfg)
print(f"  {len(questions)} questions over {len(features)} images, "
      f"feature dim {features.feature_dim}")
for q in questions[:5]:
    print(f"  {q.image_id} [{q.qtype.value:8s}] {' '.join(q.tokens):38s} -> {q.answer}")

print("\n== reformatting ==")
tasks = tuple(sorted({q.qtype for q in questions}, key=lambda t: t.value))
groups = group_by_image(questions)
combined = reformat_multitask(groups, tasks)
singles = flatten_single_task(combined)
isolated = isolate_slots(combined)
print(f"  combined examples: {len(combined)}")
print(f"  flattened singles: {len(singles)}")
print(f"  isolated slots:    {len(isolated)}")

example = max(combined, key=lambda ex: len(ex.slots))
print(f"\n  one combined example for {example.image_id} "
      f"(mask {example.mask(tasks)}):")
for q in example.slots:
    print(f"    [{q.qtype.value:8s}] {' '.join(q.tokens):38s} -> {q.answer}")

print("\n== statistics ==")
for line in corpus_stats(combined).lines():
    print("  " + line)
