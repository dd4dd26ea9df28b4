"""Walk through the frontend on one Solidity file: tokens, tree, metrics.

Run: python3 demos/01_single_contract_metrics.py
"""

from solmetrics import (
    DISPLAY_NAMES,
    METRIC_NAMES,
    build_inheritance_graph,
    contract_metrics,
    line_accounting,
    parse_file,
    tokenize,
)

SOURCE = """\
pragma solidity ^0.8.0;

contract Ledger {
    address owner;
    uint total;                 // running sum
    event Recorded(address who, uint amount);

    constructor() {
        owner = msg.sender;
    }

    /* Record a deposit; rejects zero amounts. */
    function record(uint amount) public returns (uint) {
        require(amount > 0, "zero amount");
        if (amount > total && amount > 10) {
            total = amount;
        } else {
            total += amount;
        }
        emit Recorded(msg.sender, amount);
        return total;
    }
}

contract Auditor is Ledger {
    function check() public view returns (bool) {
        return total >= 0 ? true : false;
    }
}
"""

tokens = tokenize(SOURCE)
print(f"{len(tokens)} tokens; first five:")
for token in tokens[:5]:
    print(f"  {token.kind:<18} {token.text!r}  span={token.span}")

unit = parse_file(tokens, "ledger.sol")
print(f"\nparsed {len(unit.contracts)} contracts, pragma = {unit.pragma!r}")

# per-function detail for the second contract's recording function
record_fn = unit.contracts[0].functions[1]
fm = record_fn.metrics  # counted by the parser as it read the body
print(f"\nfunction {record_fn.name!r}:")
print(f"  cyclomatic = {fm.mccc} (strict {fm.mccc_strict}, the && counts once)")
print(f"  nesting depth = {fm.nl}, statements = {fm.nos}, fan-out = {fm.noi}")

# the full 21-component vector needs line counts and the inheritance graph
graph = build_inheritance_graph([unit])
print("\nper-contract metric vectors:")
for contract in unit.contracts:
    lines = line_accounting(unit, contract)
    vector = contract_metrics(contract, lines, graph, "ledger.sol")
    print(f"\n  {contract.kind} {contract.name}")
    for name in METRIC_NAMES:
        value = getattr(vector, name)
        if value:
            print(f"    {DISPLAY_NAMES[name]:<12} {value:g}")
