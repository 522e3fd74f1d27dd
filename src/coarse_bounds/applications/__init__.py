"""Application solvers: insurance valuation, portfolio choice, contracting."""

from .crra import CRRAUtility
from .insurance import InsuranceContract, LossModel
from .portfolio import PortfolioProblem, allocation_objective
from .contracts import ContractingProblem

__all__ = [
    "CRRAUtility",
    "InsuranceContract",
    "LossModel",
    "PortfolioProblem",
    "allocation_objective",
    "ContractingProblem",
]
