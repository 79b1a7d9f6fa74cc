"""Integer reference for the strands of a braid word, read from its letters
alone: the tests' check of purity and linking numbers."""


def strand_linking(w):
    """(pure, doubled) for a braid word w: pure says every strand ends where
    it starts, and doubled[x, y] for strands x < y, 1-indexed by start
    position, is their signed crossing count, twice their linking number."""
    m = w.strands
    occupant = list(range(1, m + 1))  # occupant[i]: the strand at position i + 1
    doubled = {(x, y): 0 for x in range(1, m + 1) for y in range(x + 1, m + 1)}
    for k in w.letters:
        i = abs(k) - 1
        x, y = occupant[i], occupant[i + 1]
        doubled[min(x, y), max(x, y)] += 1 if k > 0 else -1
        occupant[i], occupant[i + 1] = y, x
    return occupant == sorted(occupant), doubled
